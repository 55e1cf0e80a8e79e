package alias

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"rpeer/internal/ident"
	"rpeer/internal/ip4"
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

// Campaign is the outcome of the MIDAR probe schedule over every
// router interface of one world. Row i is the interface at row i of
// the world's interface column (netsim.World.IfaceAt), so rows run in
// ascending address order. Probing is a pure function of (seed,
// address) and independent of the alias mode, so one campaign serves
// every resolution under both modes. Per row it holds:
//
//   - Off: the schedule-offset index (which row of probeTimes applies);
//   - Mask: the replying rounds as a bitmask (bit i: round i replied
//     with a usable IP-ID);
//   - Jit: the jitter of every replying round as two bits of one word,
//     from which the IP-ID samples are rebuilt (see sampleOf);
//   - Vel: the fitted counter velocity, NaN exactly when the row has
//     fewer than five replies (a router with randomized IP-IDs has
//     none).
//
// A sample is the counter value floor(base + 3·jitter) mod 2^16, with
// base = IPIDInit + IPIDRate·t the router's counter at the probe time
// and jitter in [0, 1), so it exceeds floor(base) by 0 to 3: those two
// bits per round are all a row stores, and the per-router counter
// parameters are read from the world, not stored per sample.
//
// The campaign is an input, like the ping campaign: it is generated
// once per world (Prober.Campaign) and stored in the world file.
type Campaign struct {
	Off  []uint8
	Mask []uint32
	Jit  []uint64
	Vel  []float64
}

// Len returns the number of rows.
func (c *Campaign) Len() int { return len(c.Vel) }

// Check validates a campaign of n rows, as a decoder must before a
// plane reads it: parallel columns of n rows, schedule offsets in
// range, no reply past the last round, jitter only on replying rounds,
// and a velocity that is NaN when the row has fewer than five replies
// and finite otherwise.
func (c *Campaign) Check(n int) error {
	if len(c.Off) != n || len(c.Mask) != n || len(c.Jit) != n || len(c.Vel) != n {
		return fmt.Errorf("campaign columns have %d/%d/%d/%d rows, want %d",
			len(c.Off), len(c.Mask), len(c.Jit), len(c.Vel), n)
	}
	for i := range n {
		mask := c.Mask[i]
		switch {
		case c.Off[i] >= scheduleOffsets:
			return fmt.Errorf("row %d: schedule offset %d out of range", i, c.Off[i])
		case mask>>rounds != 0:
			return fmt.Errorf("row %d: reply mask %#x has rounds past %d", i, mask, rounds)
		case c.Jit[i]&^roundBits(mask) != 0:
			return fmt.Errorf("row %d: jitter outside the replying rounds", i)
		case math.IsNaN(c.Vel[i]) != (bits.OnesCount32(mask) < 5):
			return fmt.Errorf("row %d: velocity %v with %d replies", i, c.Vel[i], bits.OnesCount32(mask))
		case math.IsInf(c.Vel[i], 0):
			return fmt.Errorf("row %d: infinite velocity", i)
		}
	}
	return nil
}

// roundBits spreads a reply mask to the two jitter bits of each
// replying round: bit i of mask becomes bits 2i and 2i+1.
func roundBits(mask uint32) uint64 {
	x := uint64(mask)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x | x<<1
}

// Campaign probes every router interface of the prober's world across
// the schedule. Rows fan out over par's default pool; they do not
// depend on the worker count.
func (p *Prober) Campaign() Campaign {
	n := p.w.NumIfaces()
	c := Campaign{
		Off:  make([]uint8, n),
		Mask: make([]uint32, n),
		Jit:  make([]uint64, n),
		Vel:  make([]float64, n),
	}
	ctr := counters(p.w)
	par.Do(0, n, 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.probeRow(&c, ctr, i)
		}
	})
	return c
}

// probeRow probes row i of the interface column across the schedule.
// The arithmetic is the one Probe applies per call, hoisted per
// interface: router, usability verdict and address words are resolved
// once, not once per round.
func (p *Prober) probeRow(c *Campaign, ctr []counter, i int) {
	ip, rid := p.w.IfaceAt(i)
	lo, hi := addrWords(ip4.Addr(ip))
	k := rng.Key3(p.seed, lo, hi, 0x0f) % scheduleOffsets
	c.Off[i] = uint8(k)
	c.Vel[i] = math.NaN()
	if !p.usableCounter(p.w.Router(rid)) {
		return // every probe replies without signal
	}
	key := rng.Key2(p.seed, lo, hi)
	ts := &probeTimes[k]
	var row [rounds]uint16
	var mask uint32
	var jit uint64
	for r, t := range ts {
		ht := rng.Mix(key, math.Float64bits(t))
		if float64(rng.Mix(ht, 0x5A)>>11)/(1<<53) < p.NoReplyProb {
			continue
		}
		jitter := float64(rng.Mix(ht, 0x33)>>11) / (1 << 53)
		base := ipidBase(ctr[rid], t)
		v := uint64(base + float64(jitter*3))
		// base >= 0 and jitter*3 < 3 rounds to below floor(base)+4, so
		// the difference fits two bits.
		jit |= (v - uint64(base)) << (2 * r)
		row[r] = uint16(v)
		mask |= 1 << r
	}
	c.Jit[i], c.Mask[i] = jit, mask
	if rate, ok := velocity(&row, mask, ts); ok {
		c.Vel[i] = rate
	}
}

// counter is one router's IP-ID counter parameters (netsim.Router).
type counter struct{ init, rate float64 }

// ipidBase returns the counter value of a router with parameters k at
// probe time t, before cross-traffic jitter. Probe, probeRow and
// sampleOf all read it here; the explicit conversion keeps the product rounded,
// so no fused multiply-add can make them disagree.
func ipidBase(k counter, t float64) float64 { return k.init + float64(k.rate*t) }

// counters returns the counter parameters of the world's routers,
// indexed by router ID.
func counters(w *netsim.World) []counter {
	n := 0
	if k := len(w.RouterIDs); k > 0 {
		n = int(w.RouterIDs[k-1]) + 1
	}
	ctr := make([]counter, n)
	for _, id := range w.RouterIDs {
		r := w.Router(id)
		ctr[id] = counter{float64(r.IPIDInit), r.IPIDRate}
	}
	return ctr
}

// Plane is the probe plane of one interface slot space (core uses
// slot = ident.IfaceID): a world's probe campaign plus, per slot, the
// campaign row of the slot's address, -1 for an address that is not a
// router interface (it never aliases). Campaign rows run in address
// order, so the plane orders a pair by comparing row numbers.
//
// Cover extends the slot-to-row index; Resolve and Aliased read it.
// Readers load an immutable index view, and Cover only appends slots
// past every view already handed out, so resolution never blocks on
// an extension.
type Plane struct {
	c planeCols

	mu   sync.Mutex // serializes Cover
	rows atomic.Pointer[[]int32]
}

// planeCols is the campaign a plane reads, with the world that names
// each row's router and the per-router counter parameters.
type planeCols struct {
	Campaign
	w   *netsim.World
	ctr []counter // by router ID
}

// NewPlane returns a plane over the campaign of w, covering no slot
// yet. cam must be w's campaign: one row per row of w's interface
// column.
func NewPlane(w *netsim.World, cam Campaign) *Plane {
	pl := &Plane{c: planeCols{Campaign: cam, w: w, ctr: counters(w)}}
	pl.rows.Store(new([]int32))
	return pl
}

// Len returns the number of covered slots.
func (pl *Plane) Len() int { return len(*pl.rows.Load()) }

// Cover extends the plane so that slot i names the campaign row of
// addrs.At(i) for every i < addrs.Len(). Slots already covered are
// kept, so addrs must extend the column an earlier call covered (an
// append-only interning column does). The new slots' row lookups fan
// out over par's default pool.
func (pl *Plane) Cover(addrs ident.Addrs) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	old := *pl.rows.Load()
	n0, n := len(old), addrs.Len()
	if n <= n0 {
		return
	}
	rows := grow(old, n)
	par.Do(0, n-n0, 1024, func(lo, hi int) {
		for i := n0 + lo; i < n0+hi; i++ {
			rows[i] = int32(pl.c.w.IfaceRow(addrs.At(ident.IfaceID(i))))
		}
	})
	pl.rows.Store(&rows)
}

// grow extends s to length n, appending zeroes. Elements below the old
// length are never rewritten, so views over the old length stay valid
// even when the backing array is shared.
func grow[T any](s []T, n int) []T {
	return append(s, make([]T, n-len(s))...)
}

// sampleOf rebuilds the round-i sample, probed at time t, of a row
// with jitter word jit on a router with counter k: the value probeRow
// measured.
func sampleOf(k counter, jit uint64, i int, t float64) uint16 {
	return uint16(uint64(ipidBase(k, t)) + jit>>(2*i)&3)
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

// linked is the pair predicate of resolution: whether campaign rows a
// and b alias under mode. Callers pass a < b, the lower address first —
// the merge in mbt breaks probe-time ties toward a, so the predicate of
// an unordered pair is the one evaluated in row order.
func (c *planeCols) linked(mode Mode, a, b int32) bool {
	va, vb := c.Vel[a], c.Vel[b]
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
func (c *planeCols) mbt(a, b int32, va, vb float64) bool {
	// Velocities of a shared counter agree closely.
	if math.Abs(va-vb) > 0.05*math.Max(va, vb)+2 {
		return false
	}
	// Monotonicity of the merged sequence with the common velocity:
	// successive samples must advance by roughly rate*dt.
	rate := (va + vb) / 2
	if c.Off[b] < c.Off[a] {
		a, b = b, a
	}
	_, ra := c.w.IfaceAt(int(a))
	_, rb := c.w.IfaceAt(int(b))
	ka, kb := c.ctr[ra], c.ctr[rb]
	ja, jb := c.Jit[a], c.Jit[b]
	ta, tb := &probeTimes[c.Off[a]], &probeTimes[c.Off[b]]
	ma, mb := c.Mask[a], c.Mask[b]
	seen := false
	var prevT float64
	var prevID uint16
	for m := ma | mb; m != 0; m &= m - 1 {
		r := bits.TrailingZeros32(m)
		if ma>>r&1 != 0 {
			id := sampleOf(ka, ja, r, ta[r])
			if seen && !advances(rate, ta[r]-prevT, prevID, id) {
				return false
			}
			seen, prevT, prevID = true, ta[r], id
		}
		if mb>>r&1 != 0 {
			id := sampleOf(kb, jb, r, tb[r])
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

// Aliased reports whether two covered slots alias under mode, in
// either order.
func (pl *Plane) Aliased(mode Mode, a, b ident.IfaceID) bool {
	rows := *pl.rows.Load()
	ra, rb := rows[a], rows[b]
	if ra < 0 || rb < 0 {
		return false
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	return pl.c.linked(mode, ra, rb)
}

// Usable reports whether a covered slot can alias at all: it is a
// router interface whose series has a velocity.
func (pl *Plane) Usable(s ident.IfaceID) bool {
	r := (*pl.rows.Load())[s]
	return r >= 0 && !math.IsNaN(pl.c.Vel[r])
}

// Resolve partitions slots — distinct, covered, in ascending address
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
	c := &pl.c
	rows := *pl.rows.Load()
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
	vel := func(i int32) float64 { return c.Vel[rows[slots[i]]] }

	buf := orderPool.Get().(*[]int32)
	order := (*buf)[:0]
	for i, s := range slots {
		if r := rows[s]; r >= 0 && !math.IsNaN(c.Vel[r]) {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(vel(a), vel(b)) })
	for x, i := range order {
		// The pre-filter rejects vj > (vi+5)/0.9 for every vj >= vi;
		// the slack keeps float rounding at the bound on linked's side.
		bound := (vel(i) + 5) / 0.9
		bound += 1e-9 * (math.Abs(bound) + 1)
		for _, j := range order[x+1:] {
			if vel(j) > bound {
				break
			}
			ri, rj := find(i), find(j)
			if ri == rj {
				continue
			}
			a, b := rows[slots[i]], rows[slots[j]]
			if b < a {
				a, b = b, a
			}
			if !c.linked(mode, a, b) {
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
