// Package alias implements MIDAR-style IPv4 alias resolution
// (Keys et al., ToN 2013; paper Section 5.2, Step 4) over the
// simulated Internet: routers expose a shared, monotonically
// increasing IP-ID counter across all their interfaces, and the
// resolver probes candidate interfaces in interleaved rounds, applying
// a Monotonic Bounds Test (MBT) to decide whether two interfaces share
// one counter — i.e. belong to one physical router.
//
// Two confidence modes mirror the two CAIDA datasets the paper chooses
// between: ModePrecision (MIDAR + iffinder: strict, very low false
// positives) and ModeCoverage (adding kapar-style looser matching:
// higher coverage, more errors).
//
// Probing is mode-independent and a pure function of (seed,
// interface), so the probe outcomes live in one columnar Plane indexed
// by interface slot; resolution under either mode reads that plane.
package alias

import (
	"math"
	"net/netip"
	"slices"
	"sync"

	"rpeer/internal/ident"
	"rpeer/internal/netsim"
	"rpeer/internal/rng"
)

// Mode selects the precision/coverage trade-off.
type Mode int

const (
	// ModePrecision accepts only pairs passing the strict MBT
	// (highest-confidence aliases, very low false positives).
	ModePrecision Mode = iota
	// ModeCoverage additionally accepts pairs with merely similar
	// counter velocities, boosting coverage at the cost of accuracy.
	ModeCoverage
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModePrecision {
		return "midar+iffinder"
	}
	return "midar+kapar"
}

// Prober simulates probing an interface for its IP-ID value. A
// fraction of routers use randomized or zero IP-IDs and are therefore
// unresolvable — the real-world phenomenon that caps Step 4 coverage.
//
// Probing is a pure function of (seed, interface, probe time): per-probe
// randomness (loss, counter jitter) is derived from a stable hash rather
// than a shared RNG stream. This makes resolution a pure function of
// its input set, so callers (core.Context) can memoize resolution
// results across pipeline runs without changing any outcome.
type Prober struct {
	w *netsim.World
	// RandomIPIDFrac is the fraction of routers with unusable IP-ID
	// behaviour.
	RandomIPIDFrac float64
	// NoReplyProb is the per-probe loss probability.
	NoReplyProb float64
	seed        int64

	// usable caches the per-router counter-usability verdict (pure in
	// (seed, router), read once per probed interface). Built on first
	// probe so post-construction tuning of RandomIPIDFrac still takes
	// effect.
	usableOnce sync.Once
	usable     []bool
}

// NewProber builds a prober over the world.
func NewProber(w *netsim.World, seed int64) *Prober {
	return &Prober{
		w:              w,
		RandomIPIDFrac: 0.15,
		NoReplyProb:    0.05,
		seed:           seed,
	}
}

// addrWords folds an address into two 64-bit identity words.
func addrWords(a netip.Addr) (lo, hi uint64) {
	if a.Is4() {
		b := a.As4()
		return uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3]), 4
	}
	b := a.As16()
	for i := 0; i < 8; i++ {
		lo |= uint64(b[i]) << (8 * i)
		hi |= uint64(b[8+i]) << (8 * i)
	}
	return lo, hi
}

// noise derives a deterministic uniform [0,1) value for one probe event
// from (seed, interface, time, salt).
func (p *Prober) noise(iface netip.Addr, t float64, salt uint64) float64 {
	lo, hi := addrWords(iface)
	h := rng.Mix(rng.Key3(p.seed, lo, hi, math.Float64bits(t)), salt)
	return float64(h>>11) / (1 << 53)
}

// usableCounter reports whether the router exposes a shared monotonic
// IP-ID counter (deterministic per router and seed).
func (p *Prober) usableCounter(r *netsim.Router) bool {
	p.usableOnce.Do(p.buildUsable)
	if int(r.ID) < len(p.usable) {
		return p.usable[r.ID]
	}
	return p.usableVerdict(r.ID)
}

// buildUsable precomputes the usability column for the world's dense
// router ID space.
func (p *Prober) buildUsable() {
	maxID := netsim.RouterID(-1)
	for _, id := range p.w.RouterIDs {
		if id > maxID {
			maxID = id
		}
	}
	col := make([]bool, maxID+1)
	for _, id := range p.w.RouterIDs {
		col[id] = p.usableVerdict(id)
	}
	p.usable = col
}

// usableVerdict is the pure per-router verdict backing the cache.
func (p *Prober) usableVerdict(id netsim.RouterID) bool {
	h := rng.Key2(p.seed, uint64(id), 0x1d)
	return float64(h%10000)/10000 >= p.RandomIPIDFrac
}

// Probe returns the IP-ID value of the interface at (virtual) time t
// seconds, and whether a usable reply arrived.
func (p *Prober) Probe(iface netip.Addr, t float64) (uint16, bool) {
	rid, ok := p.w.RouterOf(iface)
	if !ok {
		return 0, false
	}
	r := p.w.Router(rid)
	if !p.usableCounter(r) {
		// Randomized IP-ID: reply arrives but carries no signal.
		return uint16(p.noise(iface, t, 0xA5) * 65536), false
	}
	if p.noise(iface, t, 0x5A) < p.NoReplyProb {
		return 0, false
	}
	// Shared counter: base progression plus cross-traffic increments.
	v := ipidBase(counter{float64(r.IPIDInit), r.IPIDRate}, t) + float64(p.noise(iface, t, 0x33)*3)
	return uint16(uint64(v)), true
}

// Resolver clusters an ad-hoc address set into routers. It is the
// address-edge convenience over a Plane built for the one call; callers
// that resolve many sets over one interface space (core.Context) keep
// a Plane and resolve slot lists on it instead.
type Resolver struct {
	Prober *Prober
	Mode   Mode
}

// NewResolver returns a resolver running the MIDAR probe schedule
// (30 rounds, 10 s apart).
func NewResolver(p *Prober, mode Mode) *Resolver {
	return &Resolver{Prober: p, Mode: mode}
}

// Resolve clusters the given interfaces into alias sets (routers).
// Interfaces that resolve with nothing form singleton clusters.
// Duplicates collapse, and clusters come in ascending address order of
// their first member, each in ascending address order.
func (r *Resolver) Resolve(ifaces []netip.Addr) [][]netip.Addr {
	dedup := slices.Clone(ifaces)
	slices.SortFunc(dedup, netip.Addr.Compare)
	dedup = slices.Compact(dedup)
	pl := NewPlane(r.Prober)
	pl.Cover(ident.AddrsOf(dedup))
	slots := make([]ident.IfaceID, len(dedup))
	for i := range slots {
		slots[i] = ident.IfaceID(i)
	}
	return Sets(dedup, pl.Resolve(r.Mode, slots))
}
