package core

import (
	"cmp"
	"slices"
	"sync"

	"rpeer/internal/alias"
	"rpeer/internal/ident"
	"rpeer/internal/ip4"
	"rpeer/internal/par"
	"rpeer/internal/traix"
)

// Alias resolution over the probe plane. Steps 4 and 5 resolve
// interface-ID sets on the context's one alias.Plane and memoize the
// outcomes per alias mode. Probe series are pure per interface and the
// private-link plane is static, so no memo entry ever goes stale: after
// a delta only the assembled Step 4 router list is patched, for the
// members the delta dirtied.

// aliasMemo holds one alias mode's resolution memos.
type aliasMemo struct {
	mode alias.Mode

	// Step 4: the multi-IXP router list as of delta generation
	// routersGen, and per candidate AS the interface set it was last
	// resolved over with the resulting clusters — a patch after a delta
	// re-derives only the dirty members' routers, and re-resolves only
	// those whose set changed.
	routerMu   sync.Mutex
	routersOK  bool
	routersGen uint64
	routers    []cachedRouter
	asSets     map[ident.MemberID]asClusters

	// Step 5: per membership, keyed by (member, interface), the private
	// AS neighbours of the router facing the IXP.
	privMu   sync.RWMutex
	privNbrs map[uint64][]ident.MemberID
}

// asClusters is one candidate AS's resolved interface set (ascending
// by address) and its alias clusters.
type asClusters struct {
	set      []ident.IfaceID
	clusters [][]ident.IfaceID
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
			privNbrs: make(map[uint64][]ident.MemberID),
		}
		c.aliasMemos[mode] = m
	}
	return m
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
// lazily per alias mode. It derives the stale members — every member on
// the first build, else those dirtied since — reading each one's
// evidence in place (step4Evidence). A member whose evidence spans two
// IXPs or more is a candidate: its interface set is alias-resolved and
// each cluster facing two IXPs or more is one of its routers. Members
// resolve independently, so they fan out over the worker pool into a
// slice indexed in ascending AS-number order, with clusters in resolver
// output order; one merge by AS number then replaces the stale members'
// runs of the previous list with the fresh ones. The list does not
// depend on the worker count.
func (c *Context) multiRouters(m *aliasMemo, workers int) []cachedRouter {
	m.routerMu.Lock()
	defer m.routerMu.Unlock()
	if m.routersOK && m.routersGen == c.gen {
		return m.routers
	}
	groups, offRoster := c.memberships()
	var stale []ident.MemberID
	if m.routersOK {
		stale = c.dirtySince(m.routersGen)
	} else {
		stale = make([]ident.MemberID, c.ids.NumMembers())
		for i := range stale {
			stale[i] = ident.MemberID(i)
		}
	}
	byASN := func(a, b ident.MemberID) int { return cmp.Compare(c.ids.ASN(a), c.ids.ASN(b)) }
	slices.SortFunc(stale, byASN)
	plane := c.aliasPlane()
	type result struct {
		res     asClusters
		miss    bool
		routers []cachedRouter
	}
	out := make([]result, len(stale))
	// Workers only read m.asSets; misses are stored after the fan-out.
	par.Do(workers, len(stale), 64, func(lo, hi int) {
		var mems []obsPair
		var ixps []ident.IXPID
		for i := lo; i < hi; i++ {
			mem, r := stale[i], &out[i]
			var nears []traix.NearPair
			nears, mems = c.step4Evidence(groups, offRoster, mem, mems)
			ixps = ixps[:0]
			for _, p := range nears {
				ixps = append(ixps, p.IXP)
			}
			for _, p := range mems {
				ixps = append(ixps, p.ixp)
			}
			slices.Sort(ixps)
			if len(slices.Compact(ixps)) < 2 {
				continue // not a candidate: the AS appears to peer at one IXP
			}
			set := make([]ident.IfaceID, 0, len(nears)+len(mems))
			for _, p := range nears {
				set = append(set, p.Near)
			}
			for _, p := range mems {
				set = append(set, p.iface)
			}
			set = c.sortedSet(set)
			r.res = m.asSets[mem]
			if !slices.Equal(r.res.set, set) {
				r.res = asClusters{set: set, clusters: alias.Sets(set, plane.Resolve(m.mode, set))}
				r.miss = true
			}
			for _, cluster := range r.res.clusters {
				ixps = ixps[:0]
				for _, id := range cluster {
					k, _ := slices.BinarySearchFunc(nears, id, func(p traix.NearPair, id ident.IfaceID) int { return cmp.Compare(p.Near, id) })
					for ; k < len(nears) && nears[k].Near == id; k++ {
						ixps = append(ixps, nears[k].IXP)
					}
					if k, ok := slices.BinarySearchFunc(mems, id, func(p obsPair, id ident.IfaceID) int { return cmp.Compare(p.iface, id) }); ok {
						ixps = append(ixps, mems[k].ixp)
					}
				}
				slices.Sort(ixps)
				ixps = slices.Compact(ixps)
				if len(ixps) < 2 {
					continue
				}
				r.routers = append(r.routers, cachedRouter{member: mem, ifaces: cluster, ixps: slices.Clone(ixps)})
			}
		}
	})
	var isStale ident.Bits
	for i, mem := range stale {
		isStale.Set(uint32(mem))
		if out[i].miss {
			m.asSets[mem] = out[i].res
		}
	}
	// Merge by AS number: the previous list's runs of the kept members
	// and the fresh runs of the stale ones.
	routers := make([]cachedRouter, 0, len(m.routers))
	k := 0
	for _, r := range m.routers {
		if isStale.Get(uint32(r.member)) {
			continue
		}
		for ; k < len(stale) && byASN(stale[k], r.member) < 0; k++ {
			routers = append(routers, out[k].routers...)
		}
		routers = append(routers, r)
	}
	for ; k < len(stale); k++ {
		routers = append(routers, out[k].routers...)
	}
	m.routers, m.routersOK, m.routersGen = routers, true, c.gen
	return routers
}

// privRouterNeighbours returns the private AS neighbours of the router
// facing the IXP on membership e: the distinct neighbours of ns (e's
// member's private-link observations), in first-observation order,
// whose interface resolves into one alias set with e.iface among
// P ∪ {e.iface}, where P is the member's private-link interface set.
// The result is memoized per membership and must be treated as
// read-only.
func (p *pipeline) privRouterNeighbours(s *scratch, e domEntry, ns []traix.PrivNeighbour) []ident.MemberID {
	c, m := p.ctx, p.alias
	key := uint64(e.member)<<32 | uint64(e.iface)
	m.privMu.RLock()
	nbrs, ok := m.privNbrs[key]
	m.privMu.RUnlock()
	if ok {
		return nbrs
	}
	mark := c.markPrivCluster(s, m.mode, ns, e.iface)
	for _, n := range ns {
		if s.ifaceMark[n.Iface] == mark && s.memMark[n.Other] != mark {
			s.memMark[n.Other] = mark
			nbrs = append(nbrs, n.Other)
		}
	}
	m.privMu.Lock()
	m.privNbrs[key] = nbrs
	m.privMu.Unlock()
	return nbrs
}

// markPrivCluster stamps s.ifaceMark, under a fresh epoch it returns,
// on the alias set holding iface when P ∪ {iface} is resolved, P being
// the interfaces of ns. Resolution yields the connected components of
// a pure predicate on interface pairs (evaluated in address order), so
// that set is iface's component: a search from iface that tests each
// stamped interface against the unstamped interfaces of P finds it,
// and no other component of P is resolved. Nothing is kept per member;
// the neighbours each membership derives are memoized instead
// (privNbrs).
func (c *Context) markPrivCluster(s *scratch, mode alias.Mode, ns []traix.PrivNeighbour, iface ident.IfaceID) uint32 {
	mark := s.nextEpoch()
	s.ifaceMark[iface] = mark
	queue := append(s.queue[:0], iface)
	for k := 0; k < len(queue); k++ {
		x := queue[k]
		for _, n := range ns {
			y := n.Iface
			if s.ifaceMark[y] == mark {
				continue
			}
			a, b := x, y
			if c.addrCmp(a, b) > 0 {
				a, b = b, a
			}
			if c.probes.Aliased(mode, a, b) {
				s.ifaceMark[y] = mark
				queue = append(queue, y)
			}
		}
	}
	s.queue = queue
	return mark
}
