package core

import (
	"runtime"
	"slices"
	"sync"

	"rpeer/internal/alias"
	"rpeer/internal/ident"
	"rpeer/internal/ip4"
	"rpeer/internal/par"
)

// Alias resolution over the probe plane. Steps 4 and 5 resolve
// interface-ID sets on the context's one alias.Plane and memoize the
// outcomes per alias mode. Probe series are pure per interface and the
// private-link plane is static, so no memo entry ever goes stale: Apply
// only drops the assembled Step 4 router list, whose inputs (the
// crossing observations) move with membership.

// aliasMemo holds one alias mode's resolution memos.
type aliasMemo struct {
	mode alias.Mode

	// Step 4: the multi-IXP router list, and per candidate AS the
	// interface set it was last resolved over with the resulting
	// clusters — a rebuild after a delta re-resolves only the ASes
	// whose set changed.
	routerMu  sync.Mutex
	routersOK bool
	routers   []cachedRouter
	asSets    map[ident.MemberID]asClusters

	// Step 5: per member AS, its private-link interface set resolved
	// once (privAS); per membership, keyed by (member, interface), the
	// private AS neighbours of the router facing the IXP (privNbrs).
	privMu   sync.RWMutex
	privAS   map[ident.MemberID]*privComps
	privNbrs map[uint64][]ident.MemberID
}

// asClusters is one candidate AS's resolved interface set (ascending
// by address) and its alias clusters.
type asClusters struct {
	set      []ident.IfaceID
	clusters [][]ident.IfaceID
}

// privComps is one member AS's private-link interface set P, ascending
// by address, with its alias components under one mode: comp[i]
// indexes the first member of set[i]'s component (alias.Plane.Resolve).
type privComps struct {
	once sync.Once
	set  []ident.IfaceID
	comp []int32
}

// aliasMemoFor returns the memos of one alias mode, creating them on
// first use.
func (c *Context) aliasMemoFor(mode alias.Mode) *aliasMemo {
	c.aliasMu.Lock()
	defer c.aliasMu.Unlock()
	m, ok := c.aliasMemos[mode]
	if !ok {
		m = &aliasMemo{
			mode:     mode,
			asSets:   make(map[ident.MemberID]asClusters),
			privAS:   make(map[ident.MemberID]*privComps),
			privNbrs: make(map[uint64][]ident.MemberID),
		}
		c.aliasMemos[mode] = m
	}
	return m
}

// dropRouterLists invalidates every mode's Step 4 router list (Apply,
// after membership churn moved the crossing observations).
func (c *Context) dropRouterLists() {
	c.aliasMu.Lock()
	defer c.aliasMu.Unlock()
	for _, m := range c.aliasMemos {
		m.routerMu.Lock()
		m.routersOK, m.routers = false, nil
		m.routerMu.Unlock()
	}
}

// aliasPlane returns the probe plane covering the current interface ID
// space. The first call probes every interface; later calls probe only
// the interfaces interned since.
func (c *Context) aliasPlane() *alias.Plane {
	c.probes.Cover(c.ids.Ifaces())
	return c.probes
}

// addrCmp orders interface IDs by address, the canonical order of
// every set the plane resolves.
func (c *Context) addrCmp(a, b ident.IfaceID) int {
	return c.ids.Addr(a).Compare(c.ids.Addr(b))
}

// sortedSet sorts interface IDs into ascending address order and drops
// duplicates. All-IPv4 sets (every set this system builds) sort as
// packed (address, ID) words: one integer compare per step instead of
// a netip compare through the intern table.
func (c *Context) sortedSet(ids []ident.IfaceID) []ident.IfaceID {
	keys := make([]uint64, len(ids))
	for i, id := range ids {
		a := c.ids.Addr(id)
		if !a.Is4() {
			slices.SortFunc(ids, c.addrCmp)
			return slices.Compact(ids)
		}
		keys[i] = uint64(ip4.U32(a))<<32 | uint64(id)
	}
	slices.Sort(keys)
	for i, k := range keys {
		ids[i] = ident.IfaceID(k)
	}
	return slices.Compact(ids)
}

// multiRouters returns the clusters facing more than one IXP, built
// lazily per alias mode over the memoized observations. Candidate ASes
// resolve independently, so they fan out over workers (0 = GOMAXPROCS)
// into an indexed slice assembled in ascending AS-number order, with
// clusters in resolver output order — the list does not depend on the
// worker count.
func (c *Context) multiRouters(m *aliasMemo, workers int) []cachedRouter {
	m.routerMu.Lock()
	defer m.routerMu.Unlock()
	if m.routersOK {
		return m.routers
	}
	var cands []*asObs
	for _, o := range c.obsIndex() {
		if o.nixps >= 2 { // candidate: the AS appears to peer at more than one IXP
			cands = append(cands, o)
		}
	}
	plane := c.aliasPlane()
	type result struct {
		res     asClusters
		miss    bool
		routers []cachedRouter
	}
	out := make([]result, len(cands))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Workers only read m.asSets; misses are stored after the fan-out.
	par.Do(workers, len(cands), func(i int) {
		o, r := cands[i], &out[i]
		set := make([]ident.IfaceID, 0, len(o.nearIfaces)+len(o.mems))
		set = append(set, o.nearIfaces...)
		for _, pr := range o.mems {
			set = append(set, pr.iface)
		}
		set = c.sortedSet(set)
		r.res = m.asSets[o.member]
		if !slices.Equal(r.res.set, set) {
			r.res = asClusters{set: set, clusters: alias.Sets(set, plane.Resolve(m.mode, set))}
			r.miss = true
		}
		var ixps []ident.IXPID
		for _, cluster := range r.res.clusters {
			ixps = ixps[:0]
			for _, id := range cluster {
				o.nearIXPsOf(id, func(x ident.IXPID) { ixps = append(ixps, x) })
				if x, ok := o.memIXPOf(id); ok {
					ixps = append(ixps, x)
				}
			}
			slices.Sort(ixps)
			ixps = slices.Compact(ixps)
			if len(ixps) < 2 {
				continue
			}
			r.routers = append(r.routers, cachedRouter{member: o.member, ifaces: cluster, ixps: slices.Clone(ixps)})
		}
	})
	routers := []cachedRouter{}
	for i := range out {
		routers = append(routers, out[i].routers...)
		if out[i].miss {
			m.asSets[cands[i].member] = out[i].res
		}
	}
	m.routers, m.routersOK = routers, true
	return routers
}

// privRouterNeighbours returns the private AS neighbours of the router
// facing the IXP on membership e: the distinct neighbours of ns (e's
// member's private-link observations), in first-observation order,
// whose interface resolves into one alias set with e.iface among
// P ∪ {e.iface}, where P is the member's private-link interface set.
// The result is memoized per membership and must be treated as
// read-only.
func (p *pipeline) privRouterNeighbours(s *scratch, e domEntry, ns []privNeighbour) []ident.MemberID {
	c, m := p.ctx, p.alias
	key := uint64(e.member)<<32 | uint64(e.iface)
	m.privMu.RLock()
	nbrs, ok := m.privNbrs[key]
	m.privMu.RUnlock()
	if ok {
		return nbrs
	}
	mark := c.markPrivCluster(s, m.mode, m.privSet(c, e.member, ns), e.iface)
	for _, n := range ns {
		if s.ifaceMark[n.iface] == mark && s.memMark[n.other] != mark {
			s.memMark[n.other] = mark
			nbrs = append(nbrs, n.other)
		}
	}
	m.privMu.Lock()
	m.privNbrs[key] = nbrs
	m.privMu.Unlock()
	return nbrs
}

// privSet returns a member's private-link interface set resolved under
// the memo's mode, resolving it on first use (exactly once, even when
// shards ask concurrently).
func (m *aliasMemo) privSet(c *Context, member ident.MemberID, ns []privNeighbour) *privComps {
	m.privMu.RLock()
	pc := m.privAS[member]
	m.privMu.RUnlock()
	if pc == nil {
		m.privMu.Lock()
		if pc = m.privAS[member]; pc == nil {
			pc = &privComps{}
			m.privAS[member] = pc
		}
		m.privMu.Unlock()
	}
	pc.once.Do(func() {
		set := make([]ident.IfaceID, len(ns))
		for i, n := range ns {
			set[i] = n.iface
		}
		pc.set = c.sortedSet(set)
		pc.comp = c.probes.Resolve(m.mode, pc.set)
	})
	return pc
}

// markPrivCluster stamps s.ifaceMark, under a fresh epoch it returns,
// on the alias set holding iface when P ∪ {iface} is resolved, P being
// pc's set. Resolution yields the connected components of a pure
// predicate on interface pairs (evaluated in address order), so that
// set is iface plus every component of P holding an interface that
// aliases iface — or, when iface is in P, iface's own component. No
// pair inside P is tested again, and the result equals a full
// resolution of P ∪ {iface}.
func (c *Context) markPrivCluster(s *scratch, mode alias.Mode, pc *privComps, iface ident.IfaceID) uint32 {
	mark := s.nextEpoch()
	s.ifaceMark[iface] = mark
	set, comp := pc.set, pc.comp
	at, inP := slices.BinarySearchFunc(set, iface, c.addrCmp)
	if inP {
		for j, r := range comp {
			if r == comp[at] {
				s.ifaceMark[set[j]] = mark
			}
		}
		return mark
	}
	// Stamp the root of every component iface aliases into, testing
	// each component only until one member links; set[j] precedes iface
	// in address order exactly when j < at.
	for j, r := range comp {
		if s.ifaceMark[set[r]] == mark {
			continue
		}
		a, b := set[j], iface
		if j >= at {
			a, b = iface, set[j]
		}
		if c.probes.Aliased(mode, a, b) {
			s.ifaceMark[set[r]] = mark
		}
	}
	for j, r := range comp {
		if s.ifaceMark[set[r]] == mark {
			s.ifaceMark[set[j]] = mark
		}
	}
	return mark
}
