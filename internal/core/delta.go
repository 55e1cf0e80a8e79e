package core

import (
	"fmt"
	"math"
	"net/netip"
	"sort"

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
	Ping map[netip.Addr]pingsim.Override
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
//     re-joins revives its tombstoned ID) and the ID-indexed columns
//     grow in place; departing interfaces are tombstoned, never
//     compacted, so every column and memo stays valid;
//   - the RTT columns are patched per overridden interface; the full
//     campaign fold is not repeated;
//   - membership churn re-evaluates only the traceroute corpus's
//     peering-LAN candidates (the membership-dependent sliver of the
//     detection work), recompacts the crossing/private-hop columns in
//     place, and rebuilds the cheap member-set, domain and Step 4
//     observation indexes; the hop-by-hop corpus scan and the IP-to-AS
//     map are never repeated;
//   - the facility geometry, ring memos, alias probe plane and alias
//     memos survive: they are keyed by VP slot, facility set,
//     interface ID and member AS, none of which a delta invalidates.
//     The plane only grows to probe newly interned interfaces, and
//     Step 4's router list is re-assembled from its per-AS memo.
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
	ds := c.in.Dataset

	// Validation completes before any mutation: a delta that fails
	// leaves the context untouched, and a delta that passes cannot
	// make the mutation phase below fail — the property the write-
	// ahead log relies on (a validated delta is safe to mutate with
	// after its log record is durable).
	leaving, err := c.validateDelta(d)
	if err != nil {
		return err
	}

	// ---- registry dataset + intern table ----
	// The detector's member-set refcounts adjust in step with the
	// dataset records (O(churn); the old path rebuilt the detector over
	// the whole dataset per delta).
	for _, k := range d.Leaves {
		if c.det != nil {
			c.det.NoteLeave(k.IXP, ds.IfaceASN[k.Iface])
		}
		delete(ds.IfaceASN, k.Iface)
		delete(ds.IfaceIXP, k.Iface)
		if id, ok := c.ids.Iface(k.Iface); ok {
			c.ids.RetireIface(id)
		}
	}
	for _, j := range d.Joins {
		if c.det != nil {
			c.det.NoteJoin(j.IXP, j.ASN)
		}
		ds.IfaceASN[j.Iface] = j.ASN
		ds.IfaceIXP[j.Iface] = j.IXP
		c.ids.AddIface(j.Iface) // appends or revives the tombstoned ID
		c.ids.AddMember(j.ASN)
		if j.PortMbps > 0 {
			ds.Ports[registry.PortKey{IXP: j.IXP, ASN: j.ASN}] = j.PortMbps
			ixp, _ := c.ids.IXP(j.IXP)
			m, _ := c.ids.Member(j.ASN)
			c.colo.SetPort(ixp, m, j.PortMbps)
		}
	}
	c.growColumns()
	c.colo.Grow(c.ids)
	c.growByASPriv()

	// ---- ping campaign ----
	if len(d.Ping) > 0 {
		c.in.Ping = c.in.Ping.WithOverrides(d.Ping)
		for ip, ov := range d.Ping {
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
		// delta can reach: candidates anchored on changed addresses
		// re-resolve their address assignments, the rest re-check
		// membership (rule 3) against the incrementally-maintained
		// member sets. The private plane is fully static (see
		// traix.Corpus) and keeps its cold-build columns.
		if c.corpus != nil {
			changed := make(map[netip.Addr]bool, len(d.Joins)+len(d.Leaves))
			for ip := range leaving {
				changed[ip] = true
			}
			for _, j := range d.Joins {
				changed[j.Iface] = true
			}
			c.crossings = c.corpus.DetectDelta(c.det, changed)
		}
		c.cross.CompactCrossings(c.crossings, c.ids)
		c.growColumns()
		c.colo.Grow(c.ids)
		c.growByASPriv()
		c.patchDomain(d, leaving)

		// Step 4's observations and the router lists assembled from
		// them fold crossings and member interfaces; both are
		// membership state. The per-AS alias clusters behind the lists
		// are pure in their interface sets and survive.
		c.obsMu.Lock()
		c.obsBuilt = false
		c.obs = nil
		c.obsMu.Unlock()
		c.dropRouterLists()
	}

	// ---- lazily rebuilt views: drop the built flag, keep capacity ----
	c.traceMu.Lock()
	c.traceBuilt = false
	c.traceMu.Unlock()

	return nil
}

// ValidateDelta runs Apply's validation phase without mutating
// anything: joins must introduce new peering-LAN interfaces on IXPs
// the dataset knows, leaves must name existing memberships, and
// measured overrides must carry a vantage point. A delta that passes
// is guaranteed to Apply cleanly against the current context state —
// the contract the persistence layer needs to log a delta before
// mutating with it.
func (c *Context) ValidateDelta(d Delta) error {
	_, err := c.validateDelta(d)
	return err
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
// produce and swapping between two retained buffers so repeated deltas
// stop reallocating the table. The surviving domain is already in
// order, so the patch is a drop-filter merged with the (small) sorted
// join batch — O(domain + churn log churn), not a full re-sort. An
// unbuilt domain needs no patching — it will be built from the
// post-delta dataset on first use.
func (c *Context) patchDomain(d Delta, leaving map[netip.Addr]bool) {
	c.domMu.Lock()
	defer c.domMu.Unlock()
	if !c.domBuilt {
		return
	}
	joins := make([]domEntry, 0, len(d.Joins))
	for _, j := range d.Joins {
		joins = append(joins, c.newDomEntry(Key{IXP: j.IXP, Iface: j.Iface}, j.ASN))
	}
	// Interned IXPID order equals name order (the IXP space is fixed
	// and was interned sorted), so the rank compare of the pre-
	// interning code is one integer compare.
	less := func(a, b domEntry) bool {
		if a.ixp != b.ixp {
			return a.ixp < b.ixp
		}
		return a.key.Iface.Less(b.key.Iface)
	}
	sort.Slice(joins, func(i, k int) bool { return less(joins[i], joins[k]) })

	out := c.domSpare[:0]
	if need := len(c.domain) + len(joins); cap(out) < need {
		out = make([]domEntry, 0, need+need/4)
	}
	ji := 0
	for _, e := range c.domain {
		if leaving[e.key.Iface] {
			continue
		}
		for ji < len(joins) && less(joins[ji], e) {
			out = append(out, joins[ji])
			ji++
		}
		out = append(out, e)
	}
	out = append(out, joins[ji:]...)
	c.domSpare = c.domain
	c.domain = out
	c.rebuildGroupsLocked()
}
