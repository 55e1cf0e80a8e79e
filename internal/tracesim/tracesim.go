// Package tracesim synthesizes the traceroute corpus the methodology
// mines (Section 3.1: 3.15B RIPE Atlas paths; here a seeded, targeted
// corpus with the same structural features): paths crossing IXP
// peering LANs, paths over private facility interconnections, transit
// lead-ins, unresponsive hops and per-hop RTTs from globally
// distributed probes.
package tracesim

import (
	"math/rand"
	"net/netip"

	"rpeer/internal/geo"
	"rpeer/internal/ip4"
	"rpeer/internal/netsim"
	"rpeer/internal/par"
	"rpeer/internal/rng"
	"rpeer/internal/traix"
)

// Config controls corpus generation.
type Config struct {
	Seed int64
	// PathsPerMembership is how many crossing paths enter each IXP
	// through each membership (the membership acting as near member).
	PathsPerMembership int
	// PrivatePathProb is the probability that a private link is
	// traversed by a path (per direction).
	PrivatePathProb float64
	// LeadInProb adds transit hops in front of a path.
	LeadInProb float64
	// StarProb replaces a hop with an unresponsive "*".
	StarProb float64
}

// DefaultConfig returns the corpus parameters used by the experiments.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		PathsPerMembership: 3,
		PrivatePathProb:    0.9,
		LeadInProb:         0.5,
		StarProb:           0.02,
	}
}

// Stream salts for the corpus's per-entity RNG streams.
const (
	streamCrossing uint64 = iota + 0x60
	streamPrivate
)

// Generate builds the corpus, fanning out over workers (0 =
// GOMAXPROCS). The output is deterministic for a given world and
// config, regardless of worker count. Crossing paths are planned
// one IXP per claim and private-link paths 512 links per claim;
// every membership and link draws from its own stream keyed by (seed,
// entity), so the corpus is bit-identical for every worker count. The
// batches concatenate in (IXP rank, membership, path) then (link,
// direction) order — the order the serial generator produced.
func Generate(w *netsim.World, cfg Config, workers int) traix.Paths {
	// Crossing paths: each membership acts as the near member entering
	// its IXP towards randomly chosen far members.
	ixpBatches := make([]traix.Paths, len(w.IXPs))
	par.Do(workers, len(w.IXPs), 1, func(rank, _ int) {
		ix := w.IXPs[rank]
		members := w.MembersOf(ix.ID)
		if len(members) < 2 {
			return
		}
		g := &pathGen{w: w, cfg: cfg, out: &ixpBatches[rank]}
		g.src = &rng.Source{}
		g.r = rand.New(g.src)
		for mi, near := range members {
			g.src.SetKey(rng.Key3(cfg.Seed, streamCrossing, uint64(rank), uint64(mi)))
			for k := 0; k < cfg.PathsPerMembership; k++ {
				far := members[g.r.Intn(len(members))]
				if far == near {
					continue
				}
				g.crossingPath(near, far)
			}
		}
	})

	// Private-interconnect paths, both directions, one stream per link.
	const linkChunk = 512
	privBatches := make([]traix.Paths, (len(w.Private)+linkChunk-1)/linkChunk)
	par.Do(workers, len(w.Private), linkChunk, func(lo, hi int) {
		g := &pathGen{w: w, cfg: cfg, out: &privBatches[lo/linkChunk]}
		g.src = &rng.Source{}
		g.r = rand.New(g.src)
		for i := lo; i < hi; i++ {
			pl := &w.Private[i]
			g.src.SetKey(rng.Key2(cfg.Seed, streamPrivate, uint64(i)))
			if g.r.Float64() < cfg.PrivatePathProb {
				g.privatePath(pl, false)
			}
			if g.r.Float64() < cfg.PrivatePathProb {
				g.privatePath(pl, true)
			}
		}
	})

	batches := append(ixpBatches, privBatches...)
	np, nh := 0, 0
	for i := range batches {
		np += batches[i].Len()
		nh += len(batches[i].Hop)
	}
	paths := traix.Paths{
		Src: make([]netsim.ASN, 0, np), Dst: make([]uint32, 0, np), Off: make([]int32, 0, np+1),
		Hop: make([]uint32, 0, nh), RTT: make([]float64, 0, nh),
	}
	for i := range batches {
		paths.Append(&batches[i])
	}
	return paths
}

// pathGen draws paths into out.
type pathGen struct {
	w   *netsim.World
	cfg Config
	src *rng.Source
	r   *rand.Rand
	out *traix.Paths
}

// probeLoc picks a random probe location (anywhere in the world).
func (g *pathGen) probeLoc() geo.Point {
	c := g.w.Cities[g.r.Intn(len(g.w.Cities))]
	return c.Loc
}

// synthIP fabricates a stable non-interface address inside the AS's
// first prefix (from the top of the range, far away from allocated
// interface addresses).
func (g *pathGen) synthIP(asn netsim.ASN) (netip.Addr, bool) {
	ps := g.w.ASPrefixes(asn)
	if len(ps) == 0 {
		return netip.Addr{}, false
	}
	p := ps[0]
	b := p.Addr().As4()
	// Last /24 of the prefix, random final octet >= 1.
	size := uint32(1) << (32 - p.Bits())
	base := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	off := size - 256 + uint32(1+g.r.Intn(250))
	u := base + off
	return netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}), true
}

// hopRTT models the probe-to-hop RTT of the first path hop (heavier
// noise than pings: traceroute samples once).
func (g *pathGen) hopRTT(src geo.Point, srcKey uint64, r *netsim.Router) float64 {
	base := g.w.Latency().PointToRouterRTT(src, srcKey, r)
	return g.w.Latency().Sample(g.r, base) + g.r.ExpFloat64()*0.5
}

// nextHopRTT extends a path to the next router: hop RTTs accumulate
// along the forward path (RTT to hop k ≈ RTT to hop k-1 plus the
// inter-router segment RTT, plus per-hop reply jitter), which is what
// makes consecutive-hop RTT differences usable as inter-peer delay
// estimates — the "Beyond Pings" idea of the paper's Section 8.
func (g *pathGen) nextHopRTT(prevRTT float64, prev, cur *netsim.Router) float64 {
	seg := g.w.Latency().RouterRTT(prev, cur)
	return prevRTT + g.w.Latency().Sample(g.r, seg) + g.r.ExpFloat64()*0.4
}

// starHop appends a hop that fails to reply ("*") with probability
// StarProb.
func (g *pathGen) starHop(ip netip.Addr, rttMs float64) {
	if g.r.Float64() < g.cfg.StarProb {
		ip, rttMs = netip.Addr{}, 0
	}
	g.out.AddHop(ip, rttMs)
}

// crossingPath draws probe -> [transit] -> near router -> far member
// IXP interface -> far AS interior.
func (g *pathGen) crossingPath(near, far *netsim.Member) {
	w := g.w
	nearR := w.Router(near.Router)
	farR := w.Router(far.Router)
	if nearR == nil || farR == nil {
		return
	}
	dst, ok := g.synthIP(far.ASN)
	if !ok {
		return
	}
	src := g.probeLoc()
	srcKey := uint64(g.r.Int63()) | 1<<58

	g.out.Add(0, dst)
	if g.r.Float64() < g.cfg.LeadInProb {
		if tip, ok := g.leadInHop(near.ASN); ok {
			g.starHop(tip, g.r.Float64()*20)
		}
	}
	// Near member's router: replies with its infrastructure interface.
	nearRTT := g.hopRTT(src, srcKey, nearR)
	g.out.AddHop(ip4.Addr(nearR.Ifaces[0]), nearRTT)
	// The far member's peering-LAN interface: this hop must stay
	// responsive for the crossing to be detectable; traIXroute-style
	// pipelines simply never see the paths where it is not. Its RTT
	// accumulates the near->far segment on top of the near hop.
	farRTT := g.nextHopRTT(nearRTT, nearR, farR)
	g.out.AddHop(far.Iface, farRTT)
	// Interior of the far AS.
	g.starHop(dst, farRTT+0.3)
}

// leadInHop fabricates a transit hop owned by one of the member's
// providers.
func (g *pathGen) leadInHop(asn netsim.ASN) (netip.Addr, bool) {
	as := g.w.AS(asn)
	if as == nil || len(as.Providers) == 0 {
		return netip.Addr{}, false
	}
	p := as.Providers[g.r.Intn(len(as.Providers))]
	return g.synthIP(p)
}

// privatePath draws probe -> A router -> B router over a private
// cross-connect (or B -> A when reversed).
func (g *pathGen) privatePath(pl *netsim.PrivateLink, reverse bool) {
	w := g.w
	ra, rb := w.Router(pl.A), w.Router(pl.B)
	aIface, bIface := pl.AIface, pl.BIface
	if reverse {
		ra, rb = rb, ra
		aIface, bIface = bIface, aIface
	}
	if ra == nil || rb == nil {
		return
	}
	dst, ok := g.synthIP(rb.Owner)
	if !ok {
		return
	}
	src := g.probeLoc()
	srcKey := uint64(g.r.Int63()) | 1<<57

	aRTT := g.hopRTT(src, srcKey, ra)
	bRTT := g.nextHopRTT(aRTT, ra, rb)
	// The near router replies with its side of the cross-connect.
	g.out.Add(0, dst)
	g.out.AddHop(ip4.Addr(aIface), aRTT)
	g.out.AddHop(ip4.Addr(bIface), bRTT)
	g.starHop(dst, bRTT+0.2)
}

// FromVP generates traceroute-style RTT observations from a fixed
// vantage location towards every member interface of one IXP,
// reproducing the Fig 12b comparison (traceroute-derived RTTs carry
// more noise than the ping campaign minimums).
func FromVP(w *netsim.World, ixp netsim.IXPID, vpLoc geo.Point, seed int64) map[netip.Addr]float64 {
	r := rand.New(rng.NewSource(rng.Key(seed, 0x66)))
	out := make(map[netip.Addr]float64)
	vpKey := uint64(seed)<<32 | 1<<56
	for _, m := range w.MembersOf(ixp) {
		rt := w.Router(m.Router)
		if rt == nil {
			continue
		}
		base := w.Latency().PointToRouterRTT(vpLoc, vpKey, rt)
		// One-shot sample + traceroute artefacts (load balancing,
		// reverse-path asymmetry).
		rtt := w.Latency().Sample(r, base) + r.ExpFloat64()*0.8
		out[m.Iface] = rtt
	}
	return out
}
