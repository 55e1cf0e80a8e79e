package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"

	"rpeer/internal/geo"
	"rpeer/internal/ip4"
	"rpeer/internal/ipam"
	"rpeer/internal/par"
	"rpeer/internal/rng"
)

// Stage salts: every random decision in the generator draws from a
// stream keyed by (world seed, stage, entity identity), so the value a
// decision sees depends only on what it is about — never on how many
// entities were generated before it, or on which worker generated it.
// That is what makes the fan-out phases below safe to run on any
// worker count with byte-identical output, and it is also why worlds
// generated by this generator differ (once) from the pre-stream
// single-RNG era: the goldens were re-pinned with the introduction of
// stream keying.
const (
	stageFac uint64 = iota + 1
	stageIXP
	stageWide
	stageReseller
	stageAS
	stageProv
	stageSample
	stageMember
	stageHome
	stageRouter
	stagePriv
)

// Generate builds a world from the configuration, fanning the
// membership synthesis, AS synthesis and private-link candidate phases
// out over workers (0 = GOMAXPROCS). Identical configs produce
// bit-identical worlds for every worker count: parallel phases only
// decide, into pre-assigned slots keyed by entity identity; everything
// that allocates shared resources (router IDs, addresses) runs in one
// deterministic serial pass over those decisions.
func Generate(cfg Config, workers int) (*World, error) {
	if cfg.NASes <= 0 || cfg.NIXPs <= 0 {
		return nil, fmt.Errorf("netsim: invalid config: NASes=%d NIXPs=%d", cfg.NASes, cfg.NIXPs)
	}
	g := &gen{
		cfg:     cfg,
		seed:    cfg.Seed,
		workers: workers,
		w:       &World{Cfg: cfg, ASes: make(map[ASN]*AS, cfg.NASes+cfg.NResellers), Routers: make(map[RouterID]*Router)},
		// The peering pool base must stay 185.0.0.0 — the allocator is a
		// sequential bump, so widening the root (here /8: the 1024x world
		// needs ~5.6M LAN addresses, past a /10) changes nothing for
		// worlds that fit the old pool: identical configs still generate
		// byte-identical worlds.
		peering: ipam.MustNew(netip.MustParsePrefix("185.0.0.0/8")),
		mgmt:    ipam.MustNew(netip.MustParsePrefix("186.0.0.0/10")),
		// Like the peering pool, the infra base must stay 56.0.0.0: the
		// /5 widening (1024x worlds hand an infra prefix to millions of
		// ASes) is invisible to any world that fit the old /6.
		infra:   ipam.MustNew(netip.MustParsePrefix("56.0.0.0/5")),
		routers: make(map[routerKey]RouterID),
	}
	g.w.Cities = DefaultCities()
	g.w.lat = newLatency(g.w, cfg.Seed)
	g.w.asPrefixes = make(map[ASN][]netip.Prefix, cfg.NASes/2)

	// Per-AS infrastructure prefixes default to /20 but shrink for
	// scaled worlds so the /6 pool holds ~4 prefixes per AS (ASes that
	// outgrow one prefix allocate more on demand in asAddr). The
	// default configuration stays at /20, keeping default worlds
	// byte-identical across scales of this knob.
	// The sizing heuristic keeps measuring against the historical /6
	// pool so every world that stops short of the cap (up to 64x)
	// keeps its prefix length; the extra /27 step is what lets the
	// 1024x world's ~3M ASes each draw a prefix from the widened /5.
	g.infraBits = 20
	for g.infraBits < 27 && (1<<(g.infraBits-6)) < 4*cfg.NASes {
		g.infraBits++
	}

	g.buildFacilities()
	if err := g.buildIXPs(); err != nil {
		return nil, err
	}
	g.buildResellers()
	g.buildASes()
	intents, err := g.planMemberships()
	if err != nil {
		return nil, err
	}
	if err := g.realizeMemberships(intents); err != nil {
		return nil, err
	}
	if err := g.buildPrivateLinks(); err != nil {
		return nil, err
	}
	g.w.buildIndices()
	return g.w, nil
}

// fanOut runs f(i) for every i in [0, n) across the generator's
// worker pool, 64 indexes per claim; every f(i) writes only to slots
// owned by index i, so scheduling cannot affect the output.
func (g *gen) fanOut(n int, f func(i int)) {
	par.Do(g.workers, n, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

type routerKey struct {
	asn ASN
	fac FacilityID // -1 = the AS's home router
}

type gen struct {
	cfg     Config
	seed    int64
	workers int
	w       *World

	peering *ipam.Allocator
	mgmt    *ipam.Allocator
	infra   *ipam.Allocator

	ixpLANs  []netip.Prefix // per IXP, parallel to w.IXPs
	routers  map[routerKey]RouterID
	nextRtr  RouterID
	cityFacs map[string][]FacilityID // city name -> facilities
	// facVecs / asVecs precompute unit vectors for the membership
	// planner's distance queries (dot-product arcs instead of repeated
	// haversine trigonometry; facVecs indexed by FacilityID, asVecs by
	// ASN-100 for the regular AS population).
	facVecs []geo.Vec3
	asVecs  []geo.Vec3
	// infraBits is the per-AS infrastructure prefix length (see
	// Generate; config-derived so scaled worlds fit the pool).
	infraBits int

	// memberSlab backs the *Member values of the world in one
	// allocation (columnar batch realized from intents).
	memberSlab []Member
}

// homeFacility decides, per AS, whether the AS's home router sits
// inside a colocation facility in its home city (common for serious
// networks: they rent a rack downtown) or fully off-net. Giving remote
// members real non-IXP facility presence is what lets Step 3 positively
// confirm remoteness and Step 5's voting localise them. The decision
// is a pure function of (seed, ASN), so concurrent membership planning
// for different IXPs of the same AS agrees without coordination.
func (g *gen) homeFacility(a *AS) FacilityID {
	facs := g.cityFacs[a.HomeCity]
	if len(facs) == 0 {
		return -1
	}
	src := rng.NewSource(rng.Key2(g.seed, stageHome, uint64(a.ASN)))
	r := rand.New(src)
	if r.Float64() >= 0.6 {
		return -1
	}
	return facs[r.Intn(len(facs))]
}

// ---------------------------------------------------------------------------
// Facilities

func (g *gen) buildFacilities() {
	g.cityFacs = make(map[string][]FacilityID, len(g.w.Cities))
	g.w.facByID = make(map[FacilityID]*Facility)
	var id FacilityID
	for ci, c := range g.w.Cities {
		r := rand.New(rng.NewSource(rng.Key2(g.seed, stageFac, uint64(ci))))
		n := 1 + int(c.Weight*0.55+r.Float64()*1.5)
		if n > 7 {
			n = 7
		}
		for i := 0; i < n; i++ {
			loc := geo.Point{
				Lat: c.Loc.Lat + (r.Float64()-0.5)*0.20,
				Lon: c.Loc.Lon + (r.Float64()-0.5)*0.25,
			}
			f := &Facility{
				ID:      id,
				Name:    fmt.Sprintf("%s DC%d", c.Name, i+1),
				City:    c.Name,
				Country: c.Country,
				Loc:     loc,
			}
			g.w.Facilities = append(g.w.Facilities, f)
			g.w.facByID[id] = f
			g.cityFacs[c.Name] = append(g.cityFacs[c.Name], id)
			id++
		}
	}
	g.facVecs = make([]geo.Vec3, len(g.w.Facilities))
	for _, f := range g.w.Facilities {
		g.facVecs[f.ID] = geo.UnitVec(f.Loc)
	}
}

// ---------------------------------------------------------------------------
// IXPs

func (g *gen) buildIXPs() error {
	// Host cities: order by weight (descending, stable), each city hosts
	// at most one IXP until cities run out.
	order := make([]int, len(g.w.Cities))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.w.Cities[order[a]].Weight > g.w.Cities[order[b]].Weight
	})

	n := g.cfg.NIXPs
	if n > len(order) {
		n = len(order)
	}
	// Choose which size-ranks become wide-area, federated, reseller-free.
	wide := make(map[int]bool)
	for i := 0; i < g.cfg.WideAreaIXPs && 3+2*i < n; i++ {
		wide[3+2*i] = true // ranks 3,5,7,... (not the two flagships)
	}
	noReseller := make(map[int]bool)
	for i := 0; i < g.cfg.NoResellerIXPs; i++ {
		r := 4 + 5*i
		if r < n {
			noReseller[r] = true
		}
	}

	for i := 0; i < n; i++ {
		r := rand.New(rng.NewSource(rng.Key2(g.seed, stageIXP, uint64(i))))
		city := g.w.Cities[order[i]]
		target := g.sizeTarget(i)
		// Size the peering LAN to the membership target (scaled worlds
		// outgrow a fixed /22): at least /22, widened until the target
		// plus a 12.5% slack (route server, federation joiners) fits.
		// The default world stays within /22, so default-scale worlds
		// are byte-identical to the fixed-size era.
		bits := 22
		for bits > 10 && (1<<(32-bits))-2 < target+target/8+16 {
			bits--
		}
		lan, err := g.peering.AllocPrefix(bits)
		if err != nil {
			return fmt.Errorf("netsim: peering LAN for IXP %d: %w", i, err)
		}
		mlan, err := g.mgmt.AllocPrefix(24)
		if err != nil {
			return fmt.Errorf("netsim: mgmt LAN for IXP %d: %w", i, err)
		}
		rs, err := g.peering.AllocAddr(lan)
		if err != nil {
			return err
		}
		nfac := 1 + target/70
		cityFacs := g.cityFacs[city.Name]
		if nfac > len(cityFacs) {
			nfac = len(cityFacs)
		}
		facs := append([]FacilityID(nil), cityFacs[:nfac]...)

		ix := &IXP{
			ID:              IXPID(i),
			Name:            fmt.Sprintf("%s-IX", city.Name),
			PeeringLAN:      lan,
			MgmtLAN:         mlan,
			RouteServer:     rs,
			Facilities:      facs,
			MinPortMbps:     1000,
			PortOptionsMbps: []int{1000, 10000},
			AllowsResellers: !noReseller[i],
			HasLG:           r.Float64() < g.cfg.LGFrac,
			AtlasProbes:     poisson(r, g.cfg.AtlasPerIXP),
		}
		if i < 8 { // the biggest exchanges sell 100GE
			ix.PortOptionsMbps = append(ix.PortOptionsMbps, 100000)
		}
		if wide[i] {
			g.makeWideArea(ix, city, i)
			ix.Name = fmt.Sprintf("%s-WideIX", city.Name)
		}
		g.w.IXPs = append(g.w.IXPs, ix)
		g.ixpLANs = append(g.ixpLANs, lan)
	}

	// Federations: pair up distinct-city IXPs of middling rank.
	fed := 1
	for p := 0; p < g.cfg.FederationPairs; p++ {
		a, b := 1+3*p, 9+3*p
		if b >= len(g.w.IXPs) {
			break
		}
		g.w.IXPs[a].FederationID = fed
		g.w.IXPs[b].FederationID = fed
		fed++
	}
	// The two flagship IXPs always have a looking glass: the study's
	// anchor VPs.
	for i := 0; i < 2 && i < len(g.w.IXPs); i++ {
		g.w.IXPs[i].HasLG = true
	}
	return nil
}

// makeWideArea spreads an IXP's fabric across facilities in 5-14 other
// cities (one facility each), NET-IX/NL-IX style.
func (g *gen) makeWideArea(ix *IXP, home City, rank int) {
	r := rand.New(rng.NewSource(rng.Key2(g.seed, stageWide, uint64(rank))))
	extra := 5 + r.Intn(10)
	tried := 0
	for len(ix.Facilities) < len(g.cityFacs[home.Name])+extra && tried < 200 {
		tried++
		c := g.w.Cities[r.Intn(len(g.w.Cities))]
		if c.Name == home.Name {
			continue
		}
		facs := g.cityFacs[c.Name]
		if len(facs) == 0 {
			continue
		}
		f := facs[r.Intn(len(facs))]
		if containsFac(ix.Facilities, f) {
			continue
		}
		ix.Facilities = append(ix.Facilities, f)
	}
	ix.WideArea = true
}

func containsFac(s []FacilityID, f FacilityID) bool {
	for _, x := range s {
		if x == f {
			return true
		}
	}
	return false
}

// sizeTarget returns the membership target for size rank i.
func (g *gen) sizeTarget(i int) int {
	t := float64(g.cfg.LargestIXPMembers) / math.Pow(float64(i+1), g.cfg.SizeExponent)
	if t < float64(g.cfg.MinIXPMembers) {
		return g.cfg.MinIXPMembers
	}
	return int(t)
}

// ---------------------------------------------------------------------------
// Resellers

func (g *gen) buildResellers() {
	// Round-robin over reseller-friendly IXPs so that every such IXP is
	// served by at least one reseller.
	var friendly []*IXP
	for _, ix := range g.w.IXPs {
		if ix.AllowsResellers {
			friendly = append(friendly, ix)
		}
	}
	for i := 0; i < g.cfg.NResellers; i++ {
		r := rand.New(rng.NewSource(rng.Key2(g.seed, stageReseller, uint64(i))))
		asn := ASN(58000 + i)
		city := g.w.Cities[r.Intn(len(g.w.Cities))]
		rs := &AS{
			ASN:         asn,
			Name:        fmt.Sprintf("Reseller-%d L2 Networks", i+1),
			Country:     city.Country,
			HomeCity:    city.Name,
			HomeLoc:     city.Loc,
			Tier:        2,
			TrafficMbps: 5000 + r.Float64()*40000,
			IsReseller:  true,
		}
		// POPs: 3-10 facilities across reseller-friendly IXPs.
		npops := 3 + r.Intn(8)
		for p := 0; p < npops && len(friendly) > 0; p++ {
			ix := friendly[(i+p*g.cfg.NResellers)%len(friendly)]
			f := ix.Facilities[r.Intn(len(ix.Facilities))]
			if !containsFac(rs.ResellerPOPs, f) {
				rs.ResellerPOPs = append(rs.ResellerPOPs, f)
				rs.Facilities = append(rs.Facilities, f)
			}
		}
		g.w.ASes[asn] = rs
		g.w.Resellers = append(g.w.Resellers, asn)
	}
}

// resellersAt returns resellers with a POP at one of the IXP's
// facilities; if none (possible for small reseller counts), any
// reseller is eligible (it will haul the circuit to its nearest POP).
func (g *gen) resellersAt(ix *IXP) []ASN {
	var out []ASN
	for _, asn := range g.w.Resellers {
		r := g.w.ASes[asn]
		for _, pop := range r.ResellerPOPs {
			if containsFac(ix.Facilities, pop) {
				out = append(out, asn)
				break
			}
		}
	}
	if len(out) == 0 {
		out = append(out, g.w.Resellers...)
	}
	return out
}

// ---------------------------------------------------------------------------
// ASes

// buildASes synthesizes the AS population into one columnar slab, the
// per-AS loop fanned over the worker pool (every AS draws from its own
// stream), then wires the transit graph in a second fan-out once the
// tier lists exist.
func (g *gen) buildASes() {
	// Cumulative city weights for weighted home-city sampling.
	cum := make([]float64, len(g.w.Cities))
	total := 0.0
	for i, c := range g.w.Cities {
		total += c.Weight
		cum[i] = total
	}

	slab := make([]AS, g.cfg.NASes)
	g.asVecs = make([]geo.Vec3, g.cfg.NASes)
	g.fanOut(g.cfg.NASes, func(i int) {
		r := rand.New(rng.NewSource(rng.Key2(g.seed, stageAS, uint64(i))))
		asn := ASN(100 + i)
		x := r.Float64() * total
		ci := sort.SearchFloat64s(cum, x)
		if ci >= len(g.w.Cities) {
			ci = len(g.w.Cities) - 1
		}
		city := g.w.Cities[ci]
		tier := 3
		switch {
		case i < 12:
			tier = 1
		case r.Float64() < 0.08:
			tier = 2
		}
		mu := map[int]float64{1: 12.2, 2: 9.9, 3: 6.7}[tier]
		traffic := math.Exp(mu + r.NormFloat64()*1.1)
		slab[i] = AS{
			ASN:      asn,
			Name:     fmt.Sprintf("AS%d-%sNet", asn, city.Name),
			Country:  city.Country,
			HomeCity: city.Name,
			HomeLoc: geo.Point{
				Lat: city.Loc.Lat + (r.Float64()-0.5)*0.3,
				Lon: city.Loc.Lon + (r.Float64()-0.5)*0.3,
			},
			Tier:        tier,
			TrafficMbps: traffic,
		}
		g.asVecs[i] = geo.UnitVec(slab[i].HomeLoc)
	})

	var tier1s []ASN
	var tier2s []ASN
	for i := range slab {
		a := &slab[i]
		g.w.ASes[a.ASN] = a
		switch a.Tier {
		case 1:
			tier1s = append(tier1s, a.ASN)
		case 2:
			tier2s = append(tier2s, a.ASN)
		}
	}
	// Transit relationships (per-AS streams; reads only the immutable
	// tier lists, writes only its own slab row).
	g.fanOut(g.cfg.NASes, func(i int) {
		a := &slab[i]
		if a.Tier == 1 {
			return
		}
		r := rand.New(rng.NewSource(rng.Key2(g.seed, stageProv, uint64(i))))
		switch a.Tier {
		case 2:
			n := 1 + r.Intn(3)
			for j := 0; j < n; j++ {
				p := tier1s[r.Intn(len(tier1s))]
				if p != a.ASN && !containsASN(a.Providers, p) {
					a.Providers = append(a.Providers, p)
				}
			}
		case 3:
			n := 1 + r.Intn(2)
			for j := 0; j < n; j++ {
				var p ASN
				if len(tier2s) > 0 && r.Float64() < 0.85 {
					p = tier2s[r.Intn(len(tier2s))]
				} else {
					p = tier1s[r.Intn(len(tier1s))]
				}
				if p != a.ASN && !containsASN(a.Providers, p) {
					a.Providers = append(a.Providers, p)
				}
			}
		}
	})
}

func containsASN(s []ASN, a ASN) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Memberships

// memberIntent is one planned membership: everything random or
// geometric about it is decided in the parallel planning phase; only
// shared-resource assignment (router IDs, addresses) is left to the
// serial realization pass. fac == -1 places the router at the AS's
// home location.
type memberIntent struct {
	asn      ASN
	kind     ConnKind
	fac      FacilityID
	reseller ASN
	viaFed   IXPID
	port     int
}

// planMemberships decides every IXP's membership roster in parallel:
// one fan-out task per IXP, each drawing from per-IXP and per-member
// streams and emitting a columnar intent batch. No shared state is
// touched — the batches are realized serially afterwards.
func (g *gen) planMemberships() ([][]memberIntent, error) {
	// Peering propensity: traffic^0.4, tier-boosted.
	weights := make([]float64, g.cfg.NASes)
	asns := make([]ASN, g.cfg.NASes)
	cum := make([]float64, g.cfg.NASes)
	total := 0.0
	for i := 0; i < g.cfg.NASes; i++ {
		asn := ASN(100 + i)
		a := g.w.ASes[asn]
		w := math.Pow(a.TrafficMbps, 0.4)
		if a.Tier == 2 {
			w *= 1.6
		}
		asns[i] = asn
		weights[i] = w
		total += w
		cum[i] = total
	}

	nRanked := len(g.w.IXPs)
	intents := make([][]memberIntent, nRanked)
	g.fanOut(nRanked, func(rank int) {
		intents[rank] = g.planIXP(rank, asns, cum, total)
	})
	return intents, nil
}

// planIXP plans one exchange's members: weighted sampling, the
// local/remote split by distance, and the per-member access decisions.
func (g *gen) planIXP(rank int, asns []ASN, cum []float64, total float64) []memberIntent {
	ix := g.w.IXPs[rank]
	target := g.sizeTarget(rank)
	nRanked := len(g.w.IXPs)
	frac := 0.0
	if nRanked > 1 {
		frac = float64(rank) / float64(nRanked-1)
	}
	share := g.cfg.RemoteShareLargest + frac*(g.cfg.RemoteShareSmallest-g.cfg.RemoteShareLargest)
	if !ix.AllowsResellers {
		share *= 0.35
	}
	nRemote := int(math.Round(float64(target) * share))
	nLocal := target - nRemote

	// Weighted sampling without replacement (per-IXP stream).
	r := rand.New(rng.NewSource(rng.Key2(g.seed, stageSample, uint64(rank))))
	chosen := make(map[ASN]bool, target)
	var members []ASN
	attempts := 0
	for len(members) < target && attempts < target*30 {
		attempts++
		x := r.Float64() * total
		i := sort.SearchFloat64s(cum, x)
		if i >= len(asns) {
			i = len(asns) - 1
		}
		asn := asns[i]
		if chosen[asn] {
			continue
		}
		chosen[asn] = true
		members = append(members, asn)
	}
	if len(members) < target {
		target = len(members)
		if nRemote > target {
			nRemote = target
		}
		nLocal = target - nRemote
	}

	// Nearby ASes make better locals: sort candidates by distance to
	// the IXP home and take locals from the near end.
	homeVec := g.facVecs[ix.Facilities[0]]
	dist := make([]float64, len(members))
	idx := make([]int, len(members))
	for i, asn := range members {
		dist[i] = geo.ArcKm(g.asVecs[asn-100], homeVec)
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return dist[idx[a]] < dist[idx[b]] })
	ordered := make([]ASN, len(members))
	for i, j := range idx {
		ordered[i] = members[j]
	}
	members = ordered
	locals := members[:nLocal]
	remotes := members[nLocal:]
	// A slice of faraway ASes still peers locally (global carriers
	// build out to big exchanges): swap ~15% of locals with remotes.
	for i := 0; i < len(locals)*15/100 && i < len(remotes); i++ {
		j := len(locals) - 1 - i
		locals[j], remotes[i] = remotes[i], locals[j]
	}

	// Nearby-remote candidates (20-400 km, non-IXP facilities),
	// precomputed once per IXP instead of once per remote member.
	var nearby []FacilityID
	for _, f := range g.w.Facilities {
		if containsFac(ix.Facilities, f.ID) {
			continue
		}
		d := geo.ArcKm(g.facVecs[f.ID], homeVec)
		if d > geo.MetroSeparationKm && d < 400 {
			nearby = append(nearby, f.ID)
		}
	}
	resellers := g.resellersAt(ix)
	sibling := g.federationSibling(ix)

	out := make([]memberIntent, 0, target)
	for _, asn := range locals {
		out = append(out, g.planLocal(ix, rank, len(out), asn))
	}
	for _, asn := range remotes {
		out = append(out, g.planRemote(ix, rank, len(out), asn, nearby, resellers, sibling))
	}
	return out
}

// planLocal plans a local membership: the router goes to the IXP
// facility closest to the AS home (matters for wide-area IXPs: members
// patch in at their nearest site).
func (g *gen) planLocal(ix *IXP, rank, idx int, asn ASN) memberIntent {
	av := g.asVecs[asn-100]
	best := ix.Facilities[0]
	bestD := math.Inf(1)
	for _, f := range ix.Facilities {
		d := geo.ArcKm(av, g.facVecs[f])
		if d < bestD {
			bestD, best = d, f
		}
	}
	r := rand.New(rng.NewSource(rng.Key3(g.seed, stageMember, uint64(rank), uint64(idx))))
	return memberIntent{asn: asn, kind: ConnLocal, fac: best, port: g.localPort(ix, r)}
}

// planRemote plans a remote membership's access kind, router placement
// and port from the member's own stream.
func (g *gen) planRemote(ix *IXP, rank, idx int, asn ASN, nearby []FacilityID, resellers []ASN, sibling *IXP) memberIntent {
	a := g.w.ASes[asn]
	r := rand.New(rng.NewSource(rng.Key3(g.seed, stageMember, uint64(rank), uint64(idx))))
	kind := ConnLongCable
	u := r.Float64()
	switch {
	case ix.AllowsResellers && u < g.cfg.ResellerFrac:
		kind = ConnReseller
	case ix.FederationID != 0 && u < g.cfg.ResellerFrac+g.cfg.FederationFrac:
		kind = ConnFederation
	}

	in := memberIntent{asn: asn, kind: kind, fac: -1}
	switch kind {
	case ConnReseller:
		in.reseller = resellers[r.Intn(len(resellers))]
		if r.Float64() < g.cfg.ColoResellerFrac {
			// Colocated-but-reseller: router in an IXP facility, virtual
			// port anyway (discounted fractional capacity).
			in.fac = ix.Facilities[r.Intn(len(ix.Facilities))]
		} else {
			in.fac = g.remotePlacement(ix, a, r, nearby)
		}
	case ConnFederation:
		if sibling == nil {
			in.kind = ConnLongCable
			in.fac = g.homePlacement(ix, a)
			break
		}
		in.viaFed = sibling.ID
		in.fac = sibling.Facilities[r.Intn(len(sibling.Facilities))]
	default:
		in.fac = g.remotePlacement(ix, a, r, nearby)
	}
	in.port = g.remotePort(ix, in.kind, r)
	return in
}

// homePlacement places a remote member's router at home: either in a
// non-IXP facility of the AS's home city, or off-net at the AS's home
// location (fac -1). A home facility that happens to belong to the IXP
// itself is not used (a member racked next to the IXP switch would
// simply patch in locally).
func (g *gen) homePlacement(ix *IXP, a *AS) FacilityID {
	if f := g.homeFacility(a); f >= 0 && !containsFac(ix.Facilities, f) {
		return f
	}
	return -1
}

// remotePlacement places the router of a remote (non-colocated)
// membership. With probability NearbyRemoteFrac the member connects
// from a regional POP in a nearby city (the paper's Rotterdam-to-
// Amsterdam case: sub-2ms RTT, yet remote); otherwise from home.
func (g *gen) remotePlacement(ix *IXP, a *AS, r *rand.Rand, nearby []FacilityID) FacilityID {
	if r.Float64() < g.cfg.NearbyRemoteFrac && len(nearby) > 0 {
		return nearby[r.Intn(len(nearby))]
	}
	return g.homePlacement(ix, a)
}

// realizeMemberships turns the planned intent batches into routers,
// peering-LAN addresses and ground-truth Member records. This pass is
// serial and deterministic: router IDs and addresses are assigned in
// (IXP rank, intent index) order, exactly once, whatever worker count
// planned the intents.
func (g *gen) realizeMemberships(intents [][]memberIntent) error {
	totalMembers := 0
	for _, batch := range intents {
		totalMembers += len(batch)
	}
	g.memberSlab = make([]Member, 0, totalMembers)
	g.w.Members = make([]*Member, 0, totalMembers)

	for rank, batch := range intents {
		ix := g.w.IXPs[rank]
		for _, in := range batch {
			r, err := g.getRouter(in.asn, in.fac)
			if err != nil {
				return err
			}
			ip, err := g.peering.AllocAddr(ix.PeeringLAN)
			if err != nil {
				return fmt.Errorf("netsim: %s peering LAN exhausted: %w", ix.Name, err)
			}
			r.Ifaces = append(r.Ifaces, ip4.U32(ip))
			r.IXPs = appendIXP(r.IXPs, ix.ID)
			g.memberSlab = append(g.memberSlab, Member{
				ASN: in.asn, IXP: ix.ID, Iface: ip, Router: r.ID,
				PortMbps: in.port, Kind: in.kind,
				Reseller: in.reseller, ViaFed: in.viaFed,
			})
			g.w.Members = append(g.w.Members, &g.memberSlab[len(g.memberSlab)-1])
		}
	}
	return nil
}

// getRouter returns (creating if needed) the AS's router at a facility,
// or its home router when fac == -1. New routers get one infrastructure
// interface from the owner's prefix. The router's IP-ID personality is
// a pure function of (seed, asn, facility), so the identity of a router
// never depends on which membership created it first.
func (g *gen) getRouter(asn ASN, fac FacilityID) (*Router, error) {
	key := routerKey{asn, fac}
	if id, ok := g.routers[key]; ok {
		return g.w.Routers[id], nil
	}
	id := g.nextRtr
	g.nextRtr++
	var loc geo.Point
	if fac >= 0 {
		loc = g.w.Facility(fac).Loc
	} else {
		loc = g.w.ASes[asn].HomeLoc
	}
	rr := rand.New(rng.NewSource(rng.Key3(g.seed, stageRouter, uint64(asn), uint64(uint32(fac))+1)))
	r := &Router{
		ID:       id,
		Owner:    asn,
		Facility: fac,
		Loc:      loc,
		IPIDInit: uint32(rr.Intn(65536)),
		IPIDRate: 40 + rr.Float64()*460,
	}
	ip, err := g.asAddr(asn)
	if err != nil {
		return nil, err
	}
	r.Ifaces = append(r.Ifaces, ip4.U32(ip))
	g.w.Routers[id] = r
	g.routers[key] = id
	// Ground-truth colocation record.
	if fac >= 0 {
		a := g.w.ASes[asn]
		if !containsFac(a.Facilities, fac) {
			a.Facilities = append(a.Facilities, fac)
		}
	}
	return r, nil
}

// asAddr allocates an address from the AS's infrastructure prefix,
// allocating prefixes on demand.
func (g *gen) asAddr(asn ASN) (netip.Addr, error) {
	for _, p := range g.w.asPrefixes[asn] {
		if ip, err := g.infra.AllocAddr(p); err == nil {
			return ip, nil
		}
	}
	p, err := g.infra.AllocPrefix(g.infraBits)
	if err != nil {
		return netip.Addr{}, fmt.Errorf("netsim: infra prefix for AS%d: %w", asn, err)
	}
	g.w.asPrefixes[asn] = append(g.w.asPrefixes[asn], p)
	return g.infra.AllocAddr(p)
}

func (g *gen) federationSibling(ix *IXP) *IXP {
	if ix.FederationID == 0 {
		return nil
	}
	for _, other := range g.w.IXPs {
		if other.ID != ix.ID && other.FederationID == ix.FederationID {
			return other
		}
	}
	return nil
}

func appendIXP(s []IXPID, id IXPID) []IXPID {
	for _, x := range s {
		if x == id {
			return s
		}
	}
	return append(s, id)
}

// localPort samples a physical port capacity from the IXP price list.
func (g *gen) localPort(ix *IXP, r *rand.Rand) int {
	opts := ix.PortOptionsMbps
	u := r.Float64()
	switch {
	case len(opts) >= 3 && u < 0.12:
		return opts[2] // 100GE, flagship ports: local peers only
	case u < 0.55:
		return opts[0]
	default:
		return opts[1]
	}
}

// remotePort samples the port capacity of a remote member. Only
// reseller customers can hold fractional (sub-Cmin) virtual ports.
func (g *gen) remotePort(ix *IXP, kind ConnKind, r *rand.Rand) int {
	if kind == ConnReseller && r.Float64() < g.cfg.SubMinPortFrac {
		fr := []int{100, 200, 500}
		return fr[r.Intn(len(fr))]
	}
	if r.Float64() < 0.75 {
		return ix.PortOptionsMbps[0]
	}
	return ix.PortOptionsMbps[1]
}

// ---------------------------------------------------------------------------
// Private interconnections

// privCand is one planned private-link candidate (no addresses yet).
type privCand struct {
	a, b RouterID
	fac  FacilityID // -1 for tethered cross-facility interconnects
}

// buildPrivateLinks plans per-facility cross-connect candidates in a
// fan-out (each facility draws from its own stream) and realizes them
// serially: dedup, owner checks and address allocation happen in
// facility order, so the link list and every address are deterministic
// for any worker count.
func (g *gen) buildPrivateLinks() error {
	// Routers per facility; router IDs ascend in creation order, which
	// is already the deterministic realization order.
	perFac := make(map[FacilityID][]RouterID)
	for id := RouterID(0); id < g.nextRtr; id++ {
		r := g.w.Routers[id]
		if r.Facility >= 0 {
			perFac[r.Facility] = append(perFac[r.Facility], id)
		}
	}
	var facs []FacilityID
	for f := range perFac {
		facs = append(facs, f)
	}
	sort.Slice(facs, func(i, j int) bool { return facs[i] < facs[j] })

	// Plan: one stream per facility, candidates written to the
	// facility's own batch.
	cands := make([][]privCand, len(facs))
	g.fanOut(len(facs), func(fi int) {
		f := facs[fi]
		rs := perFac[f]
		if len(rs) < 2 {
			return
		}
		r := rand.New(rng.NewSource(rng.Key2(g.seed, stagePriv, uint64(f))))
		var out []privCand
		for _, a := range rs {
			n := poisson(r, g.cfg.PrivateLinkPerFacilityAS)
			for k := 0; k < n; k++ {
				var b RouterID
				fac := f
				if r.Float64() < g.cfg.TetheredPrivateFrac && len(facs) > 1 {
					// Tethered interconnect to another facility.
					of := facs[r.Intn(len(facs))]
					candRs := perFac[of]
					b = candRs[r.Intn(len(candRs))]
					fac = -1
				} else {
					b = rs[r.Intn(len(rs))]
				}
				out = append(out, privCand{a: a, b: b, fac: fac})
			}
		}
		cands[fi] = out
	})

	// Realize: dedup and allocate addresses in facility order.
	seen := make(map[[2]RouterID]bool)
	for _, batch := range cands {
		for _, c := range batch {
			ra, rb := g.w.Routers[c.a], g.w.Routers[c.b]
			if c.a == c.b || ra.Owner == rb.Owner {
				continue
			}
			key := [2]RouterID{c.a, c.b}
			if c.a > c.b {
				key = [2]RouterID{c.b, c.a}
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			ipa, err1 := g.asAddr(ra.Owner)
			ipb, err2 := g.asAddr(rb.Owner)
			if err1 != nil || err2 != nil {
				continue
			}
			a, b := ip4.U32(ipa), ip4.U32(ipb)
			ra.Ifaces = append(ra.Ifaces, a)
			rb.Ifaces = append(rb.Ifaces, b)
			g.w.Private = append(g.w.Private, PrivateLink{
				A: c.a, B: c.b, AIface: a, BIface: b, Facility: c.fac,
			})
		}
	}
	return nil
}

// poisson draws a Poisson-distributed integer with the given mean using
// Knuth's method (fine for small means).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
