package core

import (
	"cmp"
	"fmt"
	"math"
	"net/netip"
	"slices"

	"rpeer/internal/ident"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/registry"
)

// Join is one membership appearing in the registry dataset: a member
// interface surfacing on an IXP peering LAN, as the merged data
// sources would eventually report it.
type Join struct {
	IXP   string
	Iface netip.Addr
	ASN   netsim.ASN
	// PortMbps, when positive, records (or refreshes) the member's
	// reported port capacity at the IXP.
	PortMbps int
}

// Delta is one batch of world changes for Context.Apply: membership
// churn (the joins and leaves internal/evolve models) plus refreshed
// per-interface campaign aggregates from a ping re-campaign.
type Delta struct {
	Joins  []Join
	Leaves []Key
	// Ping layers refreshed campaign aggregates over the current ping
	// result (see pingsim.Overrides); a NaN RTTMinMs removes the
	// interface's measurement.
	Ping map[netip.Addr]pingsim.IfaceAgg
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool {
	return len(d.Joins) == 0 && len(d.Leaves) == 0 && len(d.Ping) == 0
}

// Apply absorbs a delta into the context, invalidating only the
// substrate the delta can reach. A context that has applied a delta is
// indistinguishable from one built cold over the post-delta inputs —
// the reports are identical (see the equivalence tests) — but the
// update costs a fraction of a rebuild:
//
//   - new entities append to the intern table (an interface that
//     re-joins gets its old ID back) and the ID-indexed columns grow
//     in place; a departing interface keeps its ID and its column
//     slots, never compacted, so every column and memo stays valid;
//   - the RTT columns are patched per overridden interface; the full
//     campaign fold is not repeated;
//   - membership churn adjusts the detector's member-set refcounts per
//     record and re-evaluates only the crossing-plane candidates the
//     delta can move (those reading a changed address, and those whose
//     member set gained or lost one of their ASes), moving each
//     changed crossing row's count between its near members' (near
//     interface, IXP) pairs; the domain gets a new version, patched in
//     order.
//     The hop-by-hop corpus scan, the IP-to-AS map and the static
//     private hops are never revisited;
//   - the facility geometry, ring memos, alias probe plane and alias
//     memos survive: they are keyed by VP slot, facility set,
//     interface ID and member AS, none of which a delta invalidates.
//     The plane only grows to map newly interned interfaces to
//     their campaign rows.
//
// Apply also marks the members the delta dirtied (markDirty): a
// member's verdicts, and its Step 4 evidence and routers, can move
// only when it is dirty. The next Run re-classifies just those members,
// and the next multiRouters call re-derives just their routers; both
// accumulate over several Applies. A member is dirty when
//
//   - it has an interface the delta joined or left (a re-join under a
//     foreign AS dirties the old and the new member);
//   - one of its interfaces carries a Ping override or revocation;
//   - its port at an IXP changed;
//   - its set of (near interface, IXP) crossing pairs changed: a pair
//     gained its first row or lost its last (traix.Corpus.DetectDelta
//     reports these members). A member whose crossing rows only moved
//     between pairs it keeps is not dirtied by them: the pair set is
//     all a run that keeps a base reads of the crossing plane (the
//     traceroute-RTT view reads rows, but keeps no base).
//
// Nothing else a delta touches is read across members: Steps 1, 2+3
// and 5 read the row's own interface and member plus static colocation
// and private-link state, and Step 4 reads one member's crossing pairs
// and rows. The alias memos are member-local too: a Step 4 cluster
// memo entry is keyed by its member and holds that member's interface
// set, and Step 5's private-neighbour memo is keyed by (member,
// interface) over the static private plane and pure probe series, so
// no delta changes what an entry answers.
//
// The traceroute-RTT augmentation is dropped and rebuilt lazily into
// its existing column capacity.
//
// Apply validates the whole delta before mutating anything: joins must
// introduce new peering-LAN interfaces on IXPs the dataset knows,
// leaves must name existing memberships, and measured overrides must
// carry a vantage point. On error the context is unchanged.
//
// Apply must not run concurrently with pipeline runs or other Apply
// calls; the rpi engine serializes them behind its lock.
func (c *Context) Apply(d Delta) error {
	// Validation completes before any mutation: a delta that fails
	// leaves the context untouched, and a delta that passes cannot
	// make the mutation phase fail — the property the write-ahead log
	// relies on (a validated delta is safe to mutate with after its log
	// record is durable).
	v, err := c.ValidateDelta(d)
	if err != nil {
		return err
	}
	return c.ApplyValidated(v)
}

// ApplyValidated applies a delta ValidateDelta passed, without
// validating it again. The context must still be in the state it was
// validated against: a token from another context, or one validated
// before another delta was applied, fails with nothing mutated.
func (c *Context) ApplyValidated(v Validated) error {
	if v.c != c || v.gen != c.gen {
		return fmt.Errorf("core: delta was validated against another context state")
	}
	d, leaving := v.d, v.leaving
	ds := c.in.Dataset
	c.gen++

	// ---- registry dataset + intern table ----
	// The detector's member-set refcounts adjust in step with the
	// dataset records (O(churn); the old path rebuilt the detector over
	// the whole dataset per delta).
	for _, k := range d.Leaves {
		asn := ds.IfaceASN[k.Iface]
		if c.det != nil {
			c.det.NoteLeave(k.IXP, asn)
		}
		c.markDirtyAS(asn)
		delete(ds.IfaceASN, k.Iface)
		delete(ds.IfaceIXP, k.Iface)
	}
	for _, j := range d.Joins {
		if c.det != nil {
			c.det.NoteJoin(j.IXP, j.ASN)
		}
		ds.IfaceASN[j.Iface] = j.ASN
		ds.IfaceIXP[j.Iface] = j.IXP
		c.ids.AddIface(j.Iface) // appends, or returns a re-join's old ID
		m := c.ids.AddMember(j.ASN)
		c.markDirty(m)
		if j.PortMbps > 0 {
			ds.Ports[registry.PortKey{IXP: j.IXP, ASN: j.ASN}] = j.PortMbps
			ixp, _ := c.ids.IXP(j.IXP)
			c.colo.SetPort(ixp, m, j.PortMbps)
			c.markDirty(m)
		}
	}
	c.growColumns()
	c.colo.Grow(c.ids)

	// ---- ping campaign ----
	if len(d.Ping) > 0 {
		c.in.Ping = c.in.Ping.WithOverrides(d.Ping)
		for ip, ov := range d.Ping {
			// Only membership rows read an interface's RTT (outside the
			// traceroute-RTT view, which never keeps a base).
			if asn, ok := ds.IfaceASN[ip]; ok {
				c.markDirtyAS(asn)
			}
			if math.IsNaN(ov.RTTMinMs) {
				c.clearPing(ip)
				continue
			}
			c.setPing(ip, ov.RTTMinMs, ov.BestVP, ov.BestRoundsUp)
		}
	}

	// ---- membership-dependent substrate ----
	if len(d.Joins)+len(d.Leaves) > 0 {
		// Only the crossing plane re-evaluates, and only where the
		// delta can reach: candidates reading changed addresses
		// re-resolve their address assignments, and candidates whose
		// member sets crossed zero re-check rule 3. The private plane
		// is fully static (see traix.Corpus) and keeps its cold-build
		// columns.
		if c.corpus != nil {
			changed := make(map[netip.Addr]bool, len(d.Joins)+len(d.Leaves))
			for ip := range leaving {
				changed[ip] = true
			}
			for _, j := range d.Joins {
				changed[j.Iface] = true
			}
			for _, m := range c.corpus.DetectDelta(c.det, changed, c.ids) {
				c.markDirty(m)
			}
		}
		c.growColumns()
		c.colo.Grow(c.ids)
		c.patchDomain(d)
	}

	// ---- lazily rebuilt views: drop the built flag, keep capacity ----
	c.traceMu.Lock()
	c.traceBuilt = false
	c.traceMu.Unlock()

	return nil
}

// incrementalCutoff bounds the incremental run: a Run whose dirty
// members hold more than 1/incrementalCutoff of the domain's rows
// classifies every row instead. A churn-size sweep of
// BenchmarkEngineApply at 4x put the break-even between 55% and 66% of
// the rows dirty (CHANGES.md).
const incrementalCutoff = 2

// markDirty records that the current delta dirtied member m.
func (c *Context) markDirty(m ident.MemberID) {
	if n := c.ids.NumMembers(); len(c.dirtyAt) < n {
		c.dirtyAt = append(c.dirtyAt, make([]uint64, n-len(c.dirtyAt))...)
	}
	c.dirtyAt[m] = c.gen
}

// markDirtyAS is markDirty by AS number.
func (c *Context) markDirtyAS(asn netsim.ASN) {
	if m, ok := c.ids.Member(asn); ok {
		c.markDirty(m)
	}
}

// dirtySince lists, ascending, the members dirtied by a delta applied
// after generation gen.
func (c *Context) dirtySince(gen uint64) (dirty []ident.MemberID) {
	for m, at := range c.dirtyAt {
		if at > gen {
			dirty = append(dirty, ident.MemberID(m))
		}
	}
	return dirty
}

// dirtyRows returns the domain indexes of the rows of every member
// dirtied since generation gen, member by member, and marks those
// members in marks. ok is false when the dirty rows pass the cutoff:
// the run then classifies every row.
func (c *Context) dirtyRows(gen uint64, g *groupIndex, marks *ident.Bits) (rows []int32, ok bool) {
	dirty := c.dirtySince(gen)
	n := 0
	for _, m := range dirty {
		n += len(g.rowsOf(m))
	}
	if n > len(g.idx)/incrementalCutoff {
		return nil, false
	}
	rows = make([]int32, 0, n)
	for _, m := range dirty {
		marks.Set(uint32(m))
		rows = append(rows, g.rowsOf(m)...)
	}
	return rows, true
}

// Validated is a delta ValidateDelta passed, bound to the context
// state it was checked against.
type Validated struct {
	c       *Context
	gen     uint64
	d       Delta
	leaving map[netip.Addr]bool
}

// ValidateDelta runs Apply's validation phase without mutating
// anything: joins must introduce new peering-LAN interfaces on IXPs
// the dataset knows, leaves must name existing memberships, and
// measured overrides must carry a vantage point. A delta that passes
// is guaranteed to apply cleanly, through ApplyValidated, against the
// current context state — the contract the persistence layer needs to
// log a delta before mutating with it.
func (c *Context) ValidateDelta(d Delta) (Validated, error) {
	leaving, err := c.validateDelta(d)
	if err != nil {
		return Validated{}, err
	}
	return Validated{c: c, gen: c.gen, d: d, leaving: leaving}, nil
}

// validateDelta checks the whole delta against the current dataset and
// returns the set of leaving interfaces (Apply reuses it to build the
// changed-address set). It performs no mutation.
func (c *Context) validateDelta(d Delta) (leaving map[netip.Addr]bool, err error) {
	ds := c.in.Dataset
	leaving = make(map[netip.Addr]bool, len(d.Leaves))
	for _, k := range d.Leaves {
		if !k.Iface.IsValid() {
			return nil, fmt.Errorf("core: leave of invalid interface")
		}
		if leaving[k.Iface] {
			return nil, fmt.Errorf("core: duplicate leave of %s", k.Iface)
		}
		if ixp, ok := ds.IfaceIXP[k.Iface]; !ok || ixp != k.IXP {
			return nil, fmt.Errorf("core: leave of unknown membership %s/%s", k.IXP, k.Iface)
		}
		leaving[k.Iface] = true
	}
	joining := make(map[netip.Addr]bool, len(d.Joins))
	for _, j := range d.Joins {
		if !j.Iface.IsValid() || j.ASN == 0 {
			return nil, fmt.Errorf("core: join needs a valid interface and ASN")
		}
		if !c.HasIXP(j.IXP) {
			return nil, fmt.Errorf("core: join at unknown IXP %q", j.IXP)
		}
		if joining[j.Iface] {
			return nil, fmt.Errorf("core: duplicate join of %s", j.Iface)
		}
		if _, exists := ds.IfaceIXP[j.Iface]; exists && !leaving[j.Iface] {
			return nil, fmt.Errorf("core: join of already-known interface %s", j.Iface)
		}
		// The interface must sit on the peering LAN of the IXP it
		// claims to join: a foreign-LAN join would leave IfaceIXP and
		// the prefix plane permanently disagreeing, and an off-LAN
		// join would break the invariant the incremental detection
		// split (traix.Corpus) relies on.
		if name, ok := ds.IXPOf(j.Iface); !ok || name != j.IXP {
			return nil, fmt.Errorf("core: join of %s: interface is not on the peering LAN of %q", j.Iface, j.IXP)
		}
		joining[j.Iface] = true
	}
	if len(d.Ping) > 0 && c.in.Ping == nil {
		return nil, fmt.Errorf("core: ping overrides without a campaign")
	}
	for ip, ov := range d.Ping {
		if !ip.IsValid() {
			return nil, fmt.Errorf("core: ping override for invalid interface")
		}
		if math.IsNaN(ov.RTTMinMs) {
			continue // measurement revocation
		}
		if ov.RTTMinMs <= 0 || math.IsInf(ov.RTTMinMs, 0) {
			return nil, fmt.Errorf("core: ping override for %s has non-positive RTT %v", ip, ov.RTTMinMs)
		}
		if ov.BestVP == nil {
			return nil, fmt.Errorf("core: measured ping override for %s needs a vantage point", ip)
		}
	}
	return leaving, nil
}

// patchDomain applies membership churn to the built domain, keeping
// the deterministic (IXP name, interface) order a cold build would
// produce. The current version is already in order, so the patch is a
// drop-filter merged with the (small) sorted join batch — O(domain +
// churn log churn), not a full re-sort. The result is a new version:
// reports hold the old one, which is never written again. An unbuilt
// domain needs no patching — it will be built from the post-delta
// dataset on first use.
func (c *Context) patchDomain(d Delta) {
	c.domMu.Lock()
	defer c.domMu.Unlock()
	if c.dom == nil {
		return
	}
	joins := make([]domEntry, 0, len(d.Joins))
	for _, j := range d.Joins {
		if e, ok := c.newDomEntry(j.Iface, j.IXP, j.ASN); ok {
			joins = append(joins, e)
		}
	}
	// Interned IXPID order equals name order (the IXP space is fixed
	// and was interned sorted), so the IXP compare is one integer
	// compare.
	compare := func(a, b domEntry) int {
		if a.ixp != b.ixp {
			return cmp.Compare(a.ixp, b.ixp)
		}
		return c.compareIface(a, b)
	}
	slices.SortFunc(joins, compare)

	old := c.dom.rows
	out := make([]domEntry, 0, len(old)+len(joins))
	// Departures are marked by interface ID, so the walk below reads a
	// bit per entry instead of hashing its address.
	for _, k := range d.Leaves {
		if id, ok := c.ids.Iface(k.Iface); ok {
			c.leaveMark.Set(uint32(id))
		}
	}
	ji := 0
	for _, e := range old {
		if c.leaveMark.Get(uint32(e.iface)) {
			continue
		}
		for ji < len(joins) && compare(joins[ji], e) < 0 {
			out = append(out, joins[ji])
			ji++
		}
		out = append(out, e)
	}
	out = append(out, joins[ji:]...)
	c.setDomainLocked(out)
	// Joins only land on roster IXPs; a leave may drop an off-roster
	// record.
	if len(d.Leaves) > 0 {
		kept := c.offRoster[:0]
		for _, e := range c.offRoster {
			if !c.leaveMark.Get(uint32(e.iface)) {
				kept = append(kept, e)
			}
		}
		c.offRoster = kept
	}
	for _, k := range d.Leaves {
		if id, ok := c.ids.Iface(k.Iface); ok {
			c.leaveMark.Clear(uint32(id))
		}
	}
}
