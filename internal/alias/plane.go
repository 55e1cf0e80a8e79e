package alias

import (
	"cmp"
	"math"
	"math/bits"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"rpeer/internal/ident"
	"rpeer/internal/netsim"
	"rpeer/internal/par"
	"rpeer/internal/rng"
)

// The MIDAR probe schedule: every interface is probed in rounds
// interleaved rounds, spacing seconds apart, shifted by one of
// scheduleOffsets sub-spacing offsets derived from its address (so the
// schedule of an interface never depends on which other interfaces
// share a resolution).
const (
	rounds          = 30
	spacing         = 10.0
	scheduleOffsets = 7
)

// probeTimes[k][i] is the virtual time of round i under schedule
// offset k.
var probeTimes = func() (ts [scheduleOffsets][rounds]float64) {
	sp := float64(spacing)
	for k := range ts {
		offset := float64(k) * (sp / scheduleOffsets)
		for i := range ts[k] {
			ts[k][i] = float64(i)*sp + offset
		}
	}
	return ts
}()

// Plane is the columnar probe plane: the outcome of the full MIDAR
// probe schedule for every interface of one slot space (core uses
// slot = ident.IfaceID). Probing is a pure function of (seed, address)
// and independent of the alias mode, so one plane serves every
// resolution under both modes, and a slot's columns never change once
// filled. Per slot it holds:
//
//   - the schedule-offset index (which row of probeTimes applies);
//   - the replying rounds as a bitmask (bit i: round i replied with a
//     usable IP-ID);
//   - the interface's router, and the jitter of every round as two bits
//     of one word, from which the IP-ID samples are rebuilt (see
//     sample);
//   - the fitted counter velocity, NaN when the series cannot be used
//     (no router, randomized IP-IDs, or fewer than five replies).
//
// A sample is the counter value floor(base + 3·jitter) mod 2^16, with
// base = IPIDInit + IPIDRate·t the router's counter at the probe time
// and jitter in [0, 1), so it exceeds floor(base) by 0 to 3: those two
// bits per round are all a slot stores, and the per-router counter
// parameters live once in the plane (ctr), not once per sample.
//
// Cover extends the plane; Resolve and Aliased read it. Readers load
// an immutable column view, and Cover only appends slots past every
// view already handed out, so resolution never blocks on a fill.
type Plane struct {
	prober *Prober

	mu   sync.Mutex // serializes Cover
	cols atomic.Pointer[planeCols]
}

type planeCols struct {
	ctr  []counter // by router ID, shared by every view
	off  []uint8
	mask []uint32
	rid  []netsim.RouterID
	jit  []uint64 // bits 2i..2i+1: round i's floor(sample) - floor(base)
	vel  []float64
}

// counter is one router's IP-ID counter parameters (netsim.Router).
type counter struct{ init, rate float64 }

// ipidBase returns the counter value of a router with parameters k at
// probe time t, before cross-traffic jitter. Probe, fill and sample all
// read it here; the explicit conversion keeps the product rounded, so
// no fused multiply-add can make them disagree.
func ipidBase(k counter, t float64) float64 { return k.init + float64(k.rate*t) }

// counters returns the counter parameters of the world's routers,
// indexed by router ID.
func (p *Prober) counters() []counter {
	n := 0
	if k := len(p.w.RouterIDs); k > 0 {
		n = int(p.w.RouterIDs[k-1]) + 1
	}
	ctr := make([]counter, n)
	for _, id := range p.w.RouterIDs {
		r := p.w.Router(id)
		ctr[id] = counter{float64(r.IPIDInit), r.IPIDRate}
	}
	return ctr
}

// NewPlane returns an empty plane probing through p.
func NewPlane(p *Prober) *Plane { return &Plane{prober: p} }

// Len returns the number of filled slots.
func (pl *Plane) Len() int {
	if c := pl.cols.Load(); c != nil {
		return len(c.vel)
	}
	return 0
}

// Cover extends the plane so that slot i holds the probe outcome of
// addrs.At(i) for every i < addrs.Len(). Slots already filled are kept,
// so addrs must extend the column an earlier call covered (an
// append-only interning column does). The fill of new slots fans out over par's
// default pool; results do not depend on the worker count.
func (pl *Plane) Cover(addrs ident.Addrs) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	old := pl.cols.Load()
	if old == nil {
		old = &planeCols{ctr: pl.prober.counters()}
	}
	n0, n := len(old.vel), addrs.Len()
	if n <= n0 {
		return
	}
	next := &planeCols{
		ctr:  old.ctr,
		off:  grow(old.off, n),
		mask: grow(old.mask, n),
		rid:  grow(old.rid, n),
		jit:  grow(old.jit, n),
		vel:  grow(old.vel, n),
	}
	par.Do(0, n-n0, 64, func(lo, hi int) {
		for i := n0 + lo; i < n0+hi; i++ {
			pl.fill(next, i, addrs.At(ident.IfaceID(i)))
		}
	})
	pl.cols.Store(next)
}

// grow extends s to length n, appending zeroes. Elements below the old
// length are never rewritten, so views over the old length stay valid
// even when the backing array is shared.
func grow[T any](s []T, n int) []T {
	return append(s, make([]T, n-len(s))...)
}

// fill probes one interface across the schedule. The arithmetic is the
// one Probe applies per call, hoisted per interface: router, usability
// verdict and address words are resolved once, not once per round.
func (pl *Plane) fill(c *planeCols, slot int, addr netip.Addr) {
	p := pl.prober
	lo, hi := addrWords(addr)
	k := rng.Key3(p.seed, lo, hi, 0x0f) % scheduleOffsets
	c.off[slot] = uint8(k)
	c.vel[slot] = math.NaN()
	rid, ok := p.w.RouterOf(addr)
	if !ok {
		return
	}
	r := p.w.Router(rid)
	if !p.usableCounter(r) {
		return // every probe replies without signal
	}
	key := rng.Key2(p.seed, lo, hi)
	ts := &probeTimes[k]
	ctr := c.ctr[rid]
	var row [rounds]uint16
	var mask uint32
	var jit uint64
	for i, t := range ts {
		ht := rng.Mix(key, math.Float64bits(t))
		if float64(rng.Mix(ht, 0x5A)>>11)/(1<<53) < p.NoReplyProb {
			continue
		}
		jitter := float64(rng.Mix(ht, 0x33)>>11) / (1 << 53)
		base := ipidBase(ctr, t)
		v := uint64(base + float64(jitter*3))
		// base >= 0 and jitter*3 < 3 rounds to below floor(base)+4, so
		// the difference fits two bits.
		jit |= (v - uint64(base)) << (2 * i)
		row[i] = uint16(v)
		mask |= 1 << i
	}
	c.rid[slot], c.jit[slot], c.mask[slot] = rid, jit, mask
	if rate, ok := velocity(&row, mask, ts); ok {
		c.vel[slot] = rate
	}
}

// sample rebuilds slot s's IP-ID sample of round i, probed at time t:
// the value fill measured.
func (c *planeCols) sample(s ident.IfaceID, i int, t float64) uint16 {
	return uint16(uint64(ipidBase(c.ctr[c.rid[s]], t)) + c.jit[s]>>(2*i)&3)
}

// velocity estimates the counter rate (IDs per second) of one series
// by unwrapping 16-bit wraparounds, returning ok=false for series of
// fewer than five replies.
func velocity(row *[rounds]uint16, mask uint32, ts *[rounds]float64) (rate float64, ok bool) {
	if bits.OnesCount32(mask) < 5 {
		return 0, false
	}
	// Unwrap: assume the counter advances less than 2^16 between
	// consecutive samples (true for MIDAR-scale spacing and rates),
	// accumulating the least-squares terms in one pass.
	var sx, sy, sxx, sxy float64
	offset := 0.0
	first := bits.TrailingZeros32(mask)
	prev := float64(row[first])
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		t, cur := ts[i], float64(row[i])
		if i != first && cur < prev {
			offset += 65536
		}
		prev = cur
		v := cur + offset
		sx += t
		sy += v
		sxx += t * t
		sxy += t * v
	}
	n := float64(bits.OnesCount32(mask))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	return (n*sxy - sx*sy) / den, true
}

// linked is the pair predicate of resolution: whether slots a and b
// alias under mode. Callers pass a before b in address order — the
// merge in mbt breaks probe-time ties toward a, so the predicate of an
// unordered pair is the one evaluated in address order.
func (c *planeCols) linked(mode Mode, a, b ident.IfaceID) bool {
	va, vb := c.vel[a], c.vel[b]
	if math.IsNaN(va) || math.IsNaN(vb) {
		return false
	}
	d, top := math.Abs(va-vb), math.Max(va, vb)
	// Cheap velocity pre-filter before the expensive MBT.
	if d > 0.10*top+5 {
		return false
	}
	switch mode {
	case ModePrecision:
		return c.mbt(a, b, va, vb)
	case ModeCoverage:
		return d < 0.02*top+1 || c.mbt(a, b, va, vb)
	}
	return false
}

// mbt runs the Monotonic Bounds Test on two series with usable
// velocities va and vb: merged by probe time, the unwrapped sequence
// must be consistent with a single linear counter. Schedule offsets
// stay below one spacing, so every probe of round r precedes every
// probe of round r+1, and the time merge walks the rounds, taking the
// series with the smaller offset first within a round (a on a tie).
func (c *planeCols) mbt(a, b ident.IfaceID, va, vb float64) bool {
	// Velocities of a shared counter agree closely.
	if math.Abs(va-vb) > 0.05*math.Max(va, vb)+2 {
		return false
	}
	// Monotonicity of the merged sequence with the common velocity:
	// successive samples must advance by roughly rate*dt.
	rate := (va + vb) / 2
	if c.off[b] < c.off[a] {
		a, b = b, a
	}
	ta, tb := &probeTimes[c.off[a]], &probeTimes[c.off[b]]
	ma, mb := c.mask[a], c.mask[b]
	seen := false
	var prevT float64
	var prevID uint16
	for m := ma | mb; m != 0; m &= m - 1 {
		r := bits.TrailingZeros32(m)
		if ma>>r&1 != 0 {
			id := c.sample(a, r, ta[r])
			if seen && !advances(rate, ta[r]-prevT, prevID, id) {
				return false
			}
			seen, prevT, prevID = true, ta[r], id
		}
		if mb>>r&1 != 0 {
			id := c.sample(b, r, tb[r])
			if seen && !advances(rate, tb[r]-prevT, prevID, id) {
				return false
			}
			seen, prevT, prevID = true, tb[r], id
		}
	}
	return true
}

// advances reports whether a counter read from and then to, dt seconds
// apart, advanced by roughly rate*dt (modulo one 16-bit wrap), allowing
// generous jitter.
func advances(rate, dt float64, from, to uint16) bool {
	expect := rate * dt
	diff := float64(to) - float64(from)
	if diff < 0 {
		diff += 65536 // wraparound
	}
	return !(math.Abs(diff-expect) > 0.35*expect+25)
}

// Aliased reports whether two filled slots alias under mode; a must
// precede b in address order (see Resolve).
func (pl *Plane) Aliased(mode Mode, a, b ident.IfaceID) bool {
	return pl.cols.Load().linked(mode, a, b)
}

// Resolve partitions slots — distinct, filled, in ascending address
// order — into alias sets: the connected components of the pair
// predicate (Aliased) over the set, as labels: comp[i] is the index of
// the first (lowest-address) member of slots[i]'s set, so sets read off
// in ascending order of their first member.
//
// Components do not depend on the order pairs are tested in, nor on
// skipping pairs already in one set, so the search visits only pairs
// the velocity pre-filter can pass: usable slots sorted by velocity,
// each paired with the ones above it up to the filter's bound. The
// union-find runs in comp itself, the velocity order on pooled scratch.
func (pl *Plane) Resolve(mode Mode, slots []ident.IfaceID) (comp []int32) {
	c := pl.cols.Load()
	comp = make([]int32, len(slots))
	for i := range comp {
		comp[i] = int32(i)
	}
	find := func(x int32) int32 {
		for comp[x] != x {
			comp[x] = comp[comp[x]] // path halving
			x = comp[x]
		}
		return x
	}

	buf := orderPool.Get().(*[]int32)
	order := (*buf)[:0]
	for i, s := range slots {
		if !math.IsNaN(c.vel[s]) {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(c.vel[slots[a]], c.vel[slots[b]]) })
	for x, i := range order {
		// The pre-filter rejects vj > (vi+5)/0.9 for every vj >= vi;
		// the slack keeps float rounding at the bound on linked's side.
		bound := (c.vel[slots[i]] + 5) / 0.9
		bound += 1e-9 * (math.Abs(bound) + 1)
		for _, j := range order[x+1:] {
			if c.vel[slots[j]] > bound {
				break
			}
			ri, rj := find(i), find(j)
			if ri == rj {
				continue
			}
			a, b := i, j
			if b < a {
				a, b = b, a
			}
			if !c.linked(mode, slots[a], slots[b]) {
				continue
			}
			// The lower root wins, so every root is its set's first
			// member.
			if rj < ri {
				ri, rj = rj, ri
			}
			comp[rj] = ri
		}
	}
	*buf = order
	orderPool.Put(buf)

	for i := range comp {
		comp[i] = find(int32(i))
	}
	return comp
}

// orderPool recycles Resolve's velocity-order scratch.
var orderPool = sync.Pool{New: func() any { return new([]int32) }}

// Sets materializes the alias sets Resolve labelled over items (aligned
// with its slots) as sub-slices of one backing array: sets in ascending
// order of their first member, members in item order.
func Sets[T any](items []T, comp []int32) [][]T {
	// end[r] counts root r's set size, then becomes its running fill
	// position; roots ascend, so set k starts where set k-1 ends.
	end := make([]int32, len(comp))
	for _, r := range comp {
		end[r]++
	}
	n, sets := int32(0), 0
	for i, r := range comp {
		if int(r) == i {
			n, end[i] = n+end[i], n
			sets++
		}
	}
	flat := make([]T, len(items))
	for i, r := range comp {
		flat[end[r]] = items[i]
		end[r]++
	}
	out := make([][]T, 0, sets)
	lo := int32(0)
	for i, r := range comp {
		if int(r) == i {
			out = append(out, flat[lo:end[i]:end[i]])
			lo = end[i]
		}
	}
	return out
}
