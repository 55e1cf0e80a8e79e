package traix

import (
	"cmp"
	"net/netip"
	"slices"
	"sort"

	"rpeer/internal/ident"
	"rpeer/internal/ip4"
	"rpeer/internal/netsim"
	"rpeer/internal/par"
	"rpeer/internal/registry"
)

// Corpus is a detection-ready index over a fixed traceroute path set.
//
// Crossing detection reads three kinds of state, and the corpus splits
// the work along those lines so that a membership delta re-does only
// the sliver it can reach:
//
//   - the corpus itself (immutable): which hops lie on a peering-LAN
//     prefix at all. These are the only hops that can anchor an IXP
//     crossing; they are indexed once, in NewCorpus.
//   - the address assignments of the dataset (which churn only at
//     join/leave addresses): rules 1 and 2 of the traIXroute triplet —
//     the IXP owning the anchor address, the far AS holding it, the
//     near/far neighbour ASes. Settled once per candidate (Settle) and
//     re-resolved per delta only for candidates touching a changed
//     address (DetectDelta).
//   - the per-IXP member AS sets (which churn with every delta): rule 3.
//     Two set probes per settled candidate. A delta re-checks it only
//     for candidates whose (exchange, AS) refcount crossed zero.
//
// The candidates that pass all three rules form the live crossing
// plane (Settle, Compact, DetectDelta): per candidate a live bit and
// the interned near interface and member, and per near member the
// distinct (near interface, IXP) pairs of its crossing rows with their
// row counts (MemberPairs), which the multi-IXP candidate search reads
// in place, without hashing, scanning the plane or sorting.
//
// Private-hop detection is *fully static*: a consecutive-hop pair with
// a peering-LAN address can never classify as a private interconnect
// (a LAN address known to the dataset is rejected as an IXP interface,
// and one unknown to the dataset resolves through neither the dataset
// nor the infrastructure prefix-to-AS map, so the pair's ASes cannot
// both be established), and a pair without one cannot be affected by
// membership state. The static verdicts are computed once in NewCorpus
// from the prefix-to-AS map alone; CompactStatic hands them over once,
// as the per-member neighbour index Step 5 reads.
type Corpus struct {
	paths Paths
	set   *LANSet

	// The static private-hop verdicts in path-then-hop order, columnar
	// (no per-row pointers for the garbage collector to chase): the
	// IPv4 endpoint words and the two ASes, until CompactStatic takes
	// them. The endpoints are always IPv4: a static pair's ASes resolve
	// through the prefix-to-AS map, which only maps IPv4 infrastructure
	// prefixes (the whole detection plane is IPv4, like the simulators
	// and datasets feeding it).
	sA, sB     []uint32
	sAAS, sBAS []netsim.ASN

	// Crossing candidates in path-then-hop order (columnar).
	candPath []int32
	candHop  []int32

	// Settled per-candidate stage-1 state (rules 1+2, address-
	// assignment-dependent): whether the triplet resolves, and to
	// whom. setIdx is the detector's dense name index — the rule-3
	// probes are integer-keyed, no string hashing.
	settledWith *Detector
	ok12        []bool
	setIdx      []int32
	nearAS      []netsim.ASN
	farAS       []netsim.ASN

	// The live crossing plane: live marks the candidates that pass
	// rules 1-3 against the detector's current state, and for those
	// nearID / nearMem hold the interned near interface and near
	// member. setIXP caches each member-set index's interned IXP (-1:
	// outside the intern table's IXP space). plane is set once Compact
	// has interned every live candidate; DetectDelta keeps it current.
	plane   bool
	live    []bool
	nearID  []ident.IfaceID
	nearMem []ident.MemberID
	setIXP  []int32

	// pairs lists, per near member (MemberID-indexed), the distinct
	// (near interface, IXP) pairs of the member's crossing rows, sorted
	// by (near, IXP), each with the number of rows carrying it. Compact
	// rebuilds it; DetectDelta moves the counts of the rows it changed.
	pairs [][]NearPair

	// byLAN indexes the candidates by the peering-LAN addresses their
	// rules 1+2 read (the anchor, plus LAN-resident neighbours, whose AS
	// resolution also rides on the dataset): sorted IPv4<<32|candidate
	// words, so one address's candidates form one run. Built lazily on
	// the first DetectDelta — cold starts never pay for it.
	byLAN []uint64

	// The rule-3 index: member set s's entries are
	// keyEnts[keyOff[s]:keyOff[s+1]], sorted AS<<32|candidate words —
	// every rule-1+2 candidate under its near AS, so the candidates a
	// zero crossing of (s, AS) can move form one run. The far AS needs
	// no entry: the anchor's own dataset record keeps it in the set, and
	// a delta that removes or reassigns the anchor re-settles the
	// candidate anyway. Built on the first DetectDelta. keyAdds collects
	// the keys re-settled candidates gain afterwards; once it outgrows
	// an eighth of the index, the index is rebuilt from the current
	// state. mark flags the candidates one DetectDelta visits.
	keyOff  []int32
	keyEnts []uint64
	keyAdds []keyCand
	mark    []uint8
}

// keyCand is one keyAdds entry: a flipKey and a candidate.
type keyCand struct {
	key  uint64
	cand int32
}

// DetectDelta visit marks.
const (
	markResettled = 1 // address assignments moved: rules 1-3 re-run
	markRecheck   = 2 // a rule-3 member set crossed zero: rule 3 re-runs
)

// LANSet answers "is this address on any peering-LAN prefix?" with a
// single binary search over sorted, merged address intervals in the
// IPv4 integer domain (peering-LAN plans are disjoint prefixes). The
// corpus split relies on the invariant that member interfaces only
// ever carry peering-LAN addresses; callers that grow the dataset
// (membership joins) use a LANSet to uphold it.
type LANSet struct {
	// base and last are the inclusive interval bounds, base ascending.
	base []uint32
	last []uint32
}

// NewLANSet indexes a peering-LAN prefix plan.
func NewLANSet(lans []netip.Prefix) *LANSet {
	type iv struct{ base, last uint32 }
	ivs := make([]iv, 0, len(lans))
	for _, p := range lans {
		if !p.IsValid() || !p.Addr().Is4() {
			continue
		}
		u := ip4.U32(p.Masked().Addr())
		size := uint32(1) << (32 - p.Bits())
		ivs = append(ivs, iv{u, u + size - 1})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].base < ivs[j].base })
	s := &LANSet{base: make([]uint32, 0, len(ivs)), last: make([]uint32, 0, len(ivs))}
	for _, v := range ivs {
		// Merge duplicates and (defensively) overlaps.
		if n := len(s.base); n > 0 && v.base <= s.last[n-1] {
			if v.last > s.last[n-1] {
				s.last[n-1] = v.last
			}
			continue
		}
		s.base = append(s.base, v.base)
		s.last = append(s.last, v.last)
	}
	return s
}

// Contains reports whether ip lies on any indexed prefix.
func (s *LANSet) Contains(ip netip.Addr) bool {
	return ip.Is4() && s.contains(ip4.U32(ip))
}

// contains reports whether the IPv4 word u lies on any indexed prefix.
func (s *LANSet) contains(u uint32) bool {
	lo, hi := 0, len(s.base)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.base[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo > 0 && u <= s.last[lo-1]
}

// NewCorpus indexes a path corpus. set must index every peering-LAN
// prefix member interfaces can be drawn from (the world's LAN plan, a
// superset of whatever the registry dataset happens to cover — see
// LANPrefixes), and ipmap is the membership-independent prefix-to-AS
// map used to settle the static private pairs. The hop scan fans out
// over path chunks; the result is independent of worker count.
func NewCorpus(paths *Paths, set *LANSet, ipmap *registry.IPMap) *Corpus {
	c := &Corpus{paths: *paths, set: set}

	const chunk = 2048
	type chunkOut struct {
		candPath []int32
		candHop  []int32
		sA, sB   []uint32
		sAAS     []netsim.ASN
		sBAS     []netsim.ASN
	}
	outs := make([]chunkOut, (paths.Len()+chunk-1)/chunk)
	par.Do(0, paths.Len(), chunk, func(lo, hi int) {
		var o chunkOut
		var onLAN []bool
		for pi := lo; pi < hi; pi++ {
			hops := c.hops(pi)
			onLAN = onLAN[:0]
			for _, h := range hops {
				onLAN = append(onLAN, h != 0 && set.contains(h))
			}
			// A static pair reads both its hops' ASes; the B side's
			// carries forward as the next pair's A side.
			var prevAS netsim.ASN
			prevOK, prevAt := false, -1
			for i := 1; i < len(hops); i++ {
				if onLAN[i] {
					o.candPath = append(o.candPath, int32(pi))
					o.candHop = append(o.candHop, int32(i))
				}
				if hops[i-1] == 0 || hops[i] == 0 {
					continue
				}
				if onLAN[i-1] || onLAN[i] {
					continue // can never classify (see type comment)
				}
				// Static pair: no peering-LAN address involved, so the
				// dataset's exclusion and AS maps can never apply.
				aAS, okA := prevAS, prevOK
				if prevAt != i-1 {
					aAS, okA = ipmap.ASOf(ip4.Addr(hops[i-1]))
				}
				bAS, okB := ipmap.ASOf(ip4.Addr(hops[i]))
				prevAS, prevOK, prevAt = bAS, okB, i
				if !okA || !okB || aAS == bAS {
					continue
				}
				o.sA = append(o.sA, hops[i-1])
				o.sB = append(o.sB, hops[i])
				o.sAAS = append(o.sAAS, aAS)
				o.sBAS = append(o.sBAS, bAS)
			}
		}
		outs[lo/chunk] = o
	})
	nc, ns := 0, 0
	for _, o := range outs {
		nc += len(o.candPath)
		ns += len(o.sA)
	}
	c.candPath = make([]int32, 0, nc)
	c.candHop = make([]int32, 0, nc)
	c.sA = make([]uint32, 0, ns)
	c.sB = make([]uint32, 0, ns)
	c.sAAS = make([]netsim.ASN, 0, ns)
	c.sBAS = make([]netsim.ASN, 0, ns)
	for _, o := range outs {
		c.candPath = append(c.candPath, o.candPath...)
		c.candHop = append(c.candHop, o.candHop...)
		c.sA = append(c.sA, o.sA...)
		c.sB = append(c.sB, o.sB...)
		c.sAAS = append(c.sAAS, o.sAAS...)
		c.sBAS = append(c.sBAS, o.sBAS...)
	}
	return c
}

// hops returns path pi's hop words.
func (c *Corpus) hops(pi int) []uint32 {
	lo, hi := c.paths.Hops(pi)
	return c.paths.Hop[lo:hi]
}

// settleOne resolves one candidate's rules 1-3.
func (c *Corpus) settleOne(d *Detector, i int) {
	idx, nearAS, farAS, ok := d.resolveTriplet(c.hops(int(c.candPath[i])), int(c.candHop[i]))
	c.ok12[i] = ok
	c.setIdx[i] = idx
	c.nearAS[i] = nearAS
	c.farAS[i] = farAS
	c.live[i] = ok && c.rule3(d, i)
}

// rule3 reports whether both ASes of a settled candidate are current
// members of the exchange.
func (c *Corpus) rule3(d *Detector, i int) bool {
	set := d.sets[c.setIdx[i]]
	return set[c.nearAS[i]] != 0 && set[c.farAS[i]] != 0
}

// row materializes settled candidate i as a crossing.
func (c *Corpus) row(d *Detector, i int) Crossing {
	pi, hop := int(c.candPath[i]), int(c.candHop[i])
	hops := c.hops(pi)
	return Crossing{
		Path: pi, Index: hop, IXP: d.names[c.setIdx[i]],
		NearIP: ip4.Addr(hops[hop-1]), NearAS: c.nearAS[i],
		IXPIP: ip4.Addr(hops[hop]), FarAS: c.farAS[i],
	}
}

// Settle resolves every candidate against d's current state — rules
// 1+2 from the address assignments, rule 3 from the member sets —
// fanning out over candidate chunks, and starts the crossing plane:
// from here on the detector records the member-set zero crossings
// DetectDelta consumes. Settle interns nothing, so it may run beside
// other interning work; Compact must follow before the plane is read.
func (c *Corpus) Settle(d *Detector) {
	n := len(c.candPath)
	c.ok12 = make([]bool, n)
	c.setIdx = make([]int32, n)
	c.nearAS = make([]netsim.ASN, n)
	c.farAS = make([]netsim.ASN, n)
	c.live = make([]bool, n)
	par.Do(0, n, 4096, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.settleOne(d, i)
		}
	})
	c.settledWith = d
	c.plane = false
	c.setIXP = c.setIXP[:0]
	c.keyOff = c.keyOff[:0]
	c.keyAdds = c.keyAdds[:0]
	d.trackFlips = true
	d.flips = d.flips[:0]
}

// Compact interns the entities of every live crossing — near
// interface, near member and IXP interface, in candidate order, and
// only at IXPs the table knows — and collects each near member's
// (near interface, IXP) pairs.
func (c *Corpus) Compact(tab *ident.Table) {
	d := c.settledWith
	if cap(c.nearID) < len(c.live) {
		c.nearID = make([]ident.IfaceID, len(c.live))
		c.nearMem = make([]ident.MemberID, len(c.live))
	}
	c.nearID = c.nearID[:len(c.live)]
	c.nearMem = c.nearMem[:len(c.live)]
	for i, ok := range c.live {
		if ok {
			c.intern(d, tab, i)
		}
	}
	c.plane = true

	// Each member's rows are gathered as pair keys into its region of
	// a counted scratch slab, sorted and folded into counted pairs; the
	// lists are cut out of one slab sized to the pairs, each capped at
	// its length, so a later insert moves that list out instead of
	// overrunning the next one.
	nm := tab.NumMembers()
	off := make([]int32, nm+1)
	for i := range c.live {
		if r := c.rowOf(int32(i)); r.in {
			off[r.mem+1]++
		}
	}
	for m := 1; m <= nm; m++ {
		off[m] += off[m-1]
	}
	keys := make([]uint64, off[nm])
	cur := slices.Clone(off[:nm])
	for i := range c.live {
		if r := c.rowOf(int32(i)); r.in {
			keys[cur[r.mem]] = r.pair().key()
			cur[r.mem]++
		}
	}
	npairs := 0
	for m := 0; m < nm; m++ {
		run := keys[off[m]:off[m+1]]
		slices.Sort(run)
		for k := range run {
			if k == 0 || run[k] != run[k-1] {
				npairs++
			}
		}
	}
	slab := make([]NearPair, 0, npairs)
	c.pairs = slices.Grow(c.pairs[:0], nm)[:nm]
	for m := 0; m < nm; m++ {
		start := len(slab)
		for _, k := range keys[off[m]:off[m+1]] {
			if n := len(slab); n > start && slab[n-1].key() == k {
				slab[n-1].Rows++
				continue
			}
			slab = append(slab, NearPair{Near: ident.IfaceID(k >> 32), IXP: ident.IXPID(uint32(k)), Rows: 1})
		}
		c.pairs[m] = slab[start:len(slab):len(slab)]
	}
}

// NearPair is one distinct (near interface, IXP) pair of a member's
// crossing rows, with the number of live rows carrying it.
type NearPair struct {
	Near ident.IfaceID
	IXP  ident.IXPID
	Rows int32
}

// key orders pairs by (near interface, IXP).
func (p NearPair) key() uint64 { return uint64(p.Near)<<32 | uint64(p.IXP) }

// addPair counts one more row of near member m's pair p and reports
// whether the pair is new to the member.
func (c *Corpus) addPair(m ident.MemberID, p NearPair) bool {
	for int(m) >= len(c.pairs) {
		c.pairs = append(c.pairs, nil)
	}
	k, ok := slices.BinarySearchFunc(c.pairs[m], p.key(), cmpPairKey)
	if ok {
		c.pairs[m][k].Rows++
		return false
	}
	p.Rows = 1
	c.pairs[m] = slices.Insert(c.pairs[m], k, p)
	return true
}

// dropPair counts one row fewer of near member m's pair p and reports
// whether that was the pair's last row.
func (c *Corpus) dropPair(m ident.MemberID, p NearPair) bool {
	k, ok := slices.BinarySearchFunc(c.pairs[m], p.key(), cmpPairKey)
	if !ok {
		return false
	}
	if c.pairs[m][k].Rows--; c.pairs[m][k].Rows > 0 {
		return false
	}
	c.pairs[m] = slices.Delete(c.pairs[m], k, k+1)
	return true
}

func cmpPairKey(p NearPair, key uint64) int { return cmp.Compare(p.key(), key) }

// MemberPairs returns the distinct (near interface, IXP) pairs of near
// member m's crossing rows, sorted by (near, IXP), each with its row
// count: the whole crossing evidence Step 4 reads for the member. The
// slice is the corpus's own: read-only, and valid until the next
// DetectDelta or Compact.
func (c *Corpus) MemberPairs(m ident.MemberID) []NearPair {
	if int(m) >= len(c.pairs) {
		return nil
	}
	return c.pairs[m]
}

// intern records live candidate i's interned near side (interning any
// entity the table has not seen) and interns its IXP interface.
func (c *Corpus) intern(d *Detector, tab *ident.Table, i int) {
	if c.ixpOf(d, tab, c.setIdx[i]) < 0 {
		return // crossing at an IXP outside the interned roster
	}
	hops, hop := c.hops(int(c.candPath[i])), int(c.candHop[i])
	c.nearID[i] = tab.AddIface(ip4.Addr(hops[hop-1]))
	c.nearMem[i] = tab.AddMember(c.nearAS[i])
	tab.AddIface(ip4.Addr(hops[hop]))
}

// ixpOf returns the interned IXP of a member-set index (-1 when the
// table does not know the name), caching the lookup.
func (c *Corpus) ixpOf(d *Detector, tab *ident.Table, set int32) int32 {
	for int(set) >= len(c.setIXP) {
		x := int32(-1)
		if id, ok := tab.IXP(d.names[len(c.setIXP)]); ok {
			x = int32(id)
		}
		c.setIXP = append(c.setIXP, x)
	}
	return c.setIXP[set]
}

// Crossings materializes the live plane as rows in path-then-hop order:
// the crossings Detector.DetectAll would return over the corpus paths
// for the detector the plane follows, without re-evaluating anything.
func (c *Corpus) Crossings() []Crossing {
	var out []Crossing
	for i, ok := range c.live {
		if ok {
			out = append(out, c.row(c.settledWith, i))
		}
	}
	return out
}

// DetectDelta brings the crossing plane up to date after a membership
// delta. Only two kinds of candidate can change verdict:
// those reading an address in changed (re-settled: rules 1-3 re-run),
// and those whose (exchange, AS) member-set count crossed zero (found
// through the sorted rule-3 index: rule 3 re-runs). Both are visited in
// candidate order, so entities first seen in this delta intern in the
// order a full re-detection would meet them.
//
// It moves the pair counts of every crossing row the delta changed and
// returns the near members whose set of (near interface, IXP) pairs
// changed (MemberPairs), with repeats: a member only some of whose rows
// moved between pairs it keeps is not returned, since Step 4 reads
// nothing else of its crossings.
//
// The plane must follow d: Settle(d), then Compact, must have run, and
// DetectDelta panics otherwise.
func (c *Corpus) DetectDelta(d *Detector, changed map[netip.Addr]bool, tab *ident.Table) (dirty []ident.MemberID) {
	if !c.plane || c.settledWith != d {
		panic("traix: DetectDelta needs a plane settled with its detector and compacted (Settle, then Compact)")
	}
	if c.byLAN == nil || len(c.keyOff) == 0 {
		// The first delta on this plane builds both indexes; they read
		// disjoint state, so side by side.
		par.Do(2, 2, 1, func(k, _ int) {
			if k == 0 && c.byLAN == nil {
				c.buildByLAN()
			} else if k == 1 && len(c.keyOff) == 0 {
				c.buildByKey(d)
			}
		})
	}
	var resettled, visit []int32
	for ip := range changed {
		if !ip.Is4() {
			continue // the peering-LAN plane is IPv4
		}
		run := lookupRun(c.byLAN, ip4.U32(ip))
		for _, e := range run {
			if i := int32(uint32(e)); c.mark[i] == 0 {
				c.mark[i] = markResettled
				resettled = append(resettled, i)
			}
		}
	}
	visit = append(visit, resettled...)
	// The index holds at least every untouched candidate's current
	// keys, which is what a flip must be matched against; a re-settled
	// candidate is visited anyway.
	slices.Sort(d.flips)
	for k, key := range d.flips {
		if k > 0 && key == d.flips[k-1] {
			continue
		}
		visit = c.visitFlip(key, visit)
	}
	d.flips = d.flips[:0]
	slices.Sort(visit)
	before := make([]crossRow, len(visit))
	for k, i := range visit {
		before[k] = c.rowOf(i)
	}

	sorted := len(c.keyAdds)
	for _, i := range resettled {
		was, wasOK := c.keyOf(i)
		c.settleOne(d, int(i))
		if now, ok := c.keyOf(i); ok && (!wasOK || now != was) {
			c.keyAdds = append(c.keyAdds, keyCand{now, i})
		}
	}
	if len(c.keyAdds) > len(c.keyEnts)/8 {
		c.buildByKey(d)
	} else {
		mergeTail(c.keyAdds, sorted)
	}
	for _, i := range visit {
		// A re-checked candidate that stays live keeps its near side.
		intern := c.mark[i] == markResettled
		if c.mark[i] == markRecheck {
			was := c.live[i]
			c.live[i] = c.ok12[i] && c.rule3(d, int(i))
			intern = !was
		}
		c.mark[i] = 0
		if intern && c.live[i] {
			c.intern(d, tab, int(i))
		}
	}
	// Every gain is counted before any loss: a pair that gains and
	// loses rows in one delta then never passes through zero on the
	// way (its losses are rows it held before), so a member is returned
	// exactly when a pair of its set appeared or vanished.
	for k, i := range visit {
		if now := c.rowOf(i); now.in && now != before[k] && c.addPair(now.mem, now.pair()) {
			dirty = append(dirty, now.mem)
		}
	}
	for k, i := range visit {
		if was := before[k]; was.in && was != c.rowOf(i) && c.dropPair(was.mem, was.pair()) {
			dirty = append(dirty, was.mem)
		}
	}
	return dirty
}

// mergeTail sorts s[sorted:] by (key, candidate) and merges it into the
// sorted prefix s[:sorted], from the back, with the tail as the only
// scratch: O(len(s)) for a short tail instead of a sort of all of s.
func mergeTail(s []keyCand, sorted int) {
	tail := slices.Clone(s[sorted:])
	slices.SortFunc(tail, cmpKeyCand)
	i, j := sorted-1, len(tail)-1
	for w := len(s) - 1; j >= 0; w-- {
		if i >= 0 && cmpKeyCand(s[i], tail[j]) > 0 {
			s[w] = s[i]
			i--
		} else {
			s[w] = tail[j]
			j--
		}
	}
}

func cmpKeyCand(a, b keyCand) int {
	return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.cand, b.cand))
}

// crossRow is one candidate's crossing row in ID space: whether it has
// one (it is live at an interned IXP), and the row's columns.
type crossRow struct {
	in   bool
	ixp  int32
	near ident.IfaceID
	mem  ident.MemberID
}

// rowOf returns candidate i's crossing row.
func (c *Corpus) rowOf(i int32) crossRow {
	if !c.live[i] {
		return crossRow{}
	}
	x := c.setIXP[c.setIdx[i]]
	if x < 0 {
		return crossRow{}
	}
	return crossRow{in: true, ixp: x, near: c.nearID[i], mem: c.nearMem[i]}
}

// pair returns the row's (near interface, IXP) pair.
func (r crossRow) pair() NearPair { return NearPair{Near: r.near, IXP: ident.IXPID(r.ixp)} }

// lookupRun returns the run of sorted hi<<32|lo words whose high word
// is hi.
func lookupRun(words []uint64, hi uint32) []uint64 {
	j, _ := slices.BinarySearch(words, uint64(hi)<<32)
	k := j
	for k < len(words) && uint32(words[k]>>32) == hi {
		k++
	}
	return words[j:k]
}

// visitFlip marks and appends the not yet visited candidates listed
// under one rule-3 key, in the index and in keyAdds. Entries a
// re-settled candidate has since left behind cost only a redundant
// rule-3 re-check.
func (c *Corpus) visitFlip(key uint64, visit []int32) []int32 {
	mark := func(i int32) {
		if c.mark[i] == 0 {
			c.mark[i] = markRecheck
			visit = append(visit, i)
		}
	}
	if set := int(key >> 32); set+1 < len(c.keyOff) {
		for _, e := range lookupRun(c.keyEnts[c.keyOff[set]:c.keyOff[set+1]], uint32(key)) {
			mark(int32(uint32(e)))
		}
	}
	j, _ := slices.BinarySearchFunc(c.keyAdds, key, func(e keyCand, key uint64) int {
		return cmp.Compare(e.key, key)
	})
	for ; j < len(c.keyAdds) && c.keyAdds[j].key == key; j++ {
		mark(c.keyAdds[j].cand)
	}
	return visit
}

// keyOf returns a candidate's rule-3 index key, (member set, near AS),
// and whether it has one (rules 1+2 hold).
func (c *Corpus) keyOf(i int32) (uint64, bool) {
	return flipKey(c.setIdx[i], c.nearAS[i]), c.ok12[i]
}

// buildByKey indexes every rule-1+2 candidate under its rule-3 key from
// the current settled state — a counting sort by member set, then a
// sort of each set's words — and empties keyAdds.
func (c *Corpus) buildByKey(d *Detector) {
	ns := len(d.names)
	off := slices.Grow(c.keyOff[:0], ns+1)[:ns+1]
	clear(off)
	for i, ok := range c.ok12 {
		if ok {
			off[c.setIdx[i]+1]++
		}
	}
	for s := 1; s <= ns; s++ {
		off[s] += off[s-1]
	}
	ents := slices.Grow(c.keyEnts[:0], int(off[ns]))[:off[ns]]
	// Fill with off[s] as set s's cursor, then shift the advanced
	// cursors (now each set's end) back into start offsets.
	for i, ok := range c.ok12 {
		if ok {
			s := c.setIdx[i]
			ents[off[s]] = uint64(c.nearAS[i])<<32 | uint64(i)
			off[s]++
		}
	}
	copy(off[1:], off[:ns])
	off[0] = 0
	for s := 0; s < ns; s++ {
		slices.Sort(ents[off[s]:off[s+1]])
	}
	c.keyOff, c.keyEnts = off, ents
	c.keyAdds = c.keyAdds[:0]
	if len(c.mark) < len(c.candPath) {
		c.mark = make([]uint8, len(c.candPath))
	}
}

// buildByLAN indexes candidates by the peering-LAN addresses their
// stage-1 resolution reads: the anchor hop, plus neighbours that are
// themselves LAN addresses (their AS resolves through the dataset).
// Infrastructure neighbours resolve through the static prefix-to-AS
// map and need no index.
func (c *Corpus) buildByLAN() {
	words := make([]uint64, 0, 2*len(c.candPath))
	for i := range c.candPath {
		hops, hop := c.hops(int(c.candPath[i])), int(c.candHop[i])
		add := func(ip uint32) {
			if ip != 0 && c.set.contains(ip) {
				words = append(words, uint64(ip)<<32|uint64(i))
			}
		}
		add(hops[hop])
		add(hops[hop-1])
		if hop+1 < len(hops) {
			add(hops[hop+1])
		}
	}
	slices.Sort(words)
	c.byLAN = words
}

// PrivNeighbour is one private-hop observation of a member: the
// interface on the member's side of the hop, and the member on the
// other side.
type PrivNeighbour struct {
	Iface ident.IfaceID
	Other ident.MemberID
}

// PrivNeighbours indexes the static private hops by member, as one
// compressed sparse row: member m's observations are
// ents[off[m]:off[m+1]], in path-then-hop order, each hop adding its A
// side's observation before its B side's. Members interned after the
// index was built have none.
type PrivNeighbours struct {
	off  []int32
	ents []PrivNeighbour
}

// Of returns member m's observations (read-only).
func (p *PrivNeighbours) Of(m ident.MemberID) []PrivNeighbour {
	if int(m)+1 >= len(p.off) {
		return nil
	}
	return p.ents[p.off[m]:p.off[m+1]]
}

// Len returns the number of private hops indexed.
func (p *PrivNeighbours) Len() int { return len(p.ents) / 2 }

// CompactStatic hands the static private hops over as the per-member
// neighbour index — the private hops DetectPrivateAll finds over the
// corpus paths, in the same order — interning each hop's interfaces,
// then its ASes, as it goes. The corpus keeps no copy: a second call
// returns an empty index.
func (c *Corpus) CompactStatic(tab *ident.Table) PrivNeighbours {
	type hop struct {
		a, b   ident.IfaceID
		am, bm ident.MemberID
	}
	hops := make([]hop, len(c.sA))
	for i := range hops {
		h := &hops[i]
		h.a = tab.AddIface(ip4.Addr(c.sA[i]))
		h.b = tab.AddIface(ip4.Addr(c.sB[i]))
		h.am = tab.AddMember(c.sAAS[i])
		h.bm = tab.AddMember(c.sBAS[i])
	}
	c.sA, c.sB, c.sAAS, c.sBAS = nil, nil, nil, nil

	nm := tab.NumMembers()
	off := make([]int32, nm+1)
	for _, h := range hops {
		off[h.am+1]++
		off[h.bm+1]++
	}
	for m := 1; m <= nm; m++ {
		off[m] += off[m-1]
	}
	// Fill with off[m] as member m's cursor, then shift the advanced
	// cursors (now each member's end) back into start offsets.
	ents := make([]PrivNeighbour, 2*len(hops))
	for _, h := range hops {
		ents[off[h.am]] = PrivNeighbour{h.a, h.bm}
		off[h.am]++
		ents[off[h.bm]] = PrivNeighbour{h.b, h.am}
		off[h.bm]++
	}
	copy(off[1:], off[:nm])
	off[0] = 0
	return PrivNeighbours{off: off, ents: ents}
}

// LANPrefixes extracts the peering-LAN plan of a world, the lans input
// of NewCorpus.
func LANPrefixes(w *netsim.World) []netip.Prefix {
	out := make([]netip.Prefix, 0, len(w.IXPs))
	for _, ix := range w.IXPs {
		out = append(out, ix.PeeringLAN)
	}
	return out
}
