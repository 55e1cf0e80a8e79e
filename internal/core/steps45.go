package core

import (
	"cmp"
	"math"
	"net/netip"
	"slices"

	"rpeer/internal/geo"
	"rpeer/internal/ident"
	"rpeer/internal/netsim"
	"rpeer/internal/par"
	"rpeer/internal/traix"
)

// ---------------------------------------------------------------------------
// Step 4: multi-IXP router inference (Section 5.2, Step 4)

// obsPair is one (interface, IXP) observation in ID space.
type obsPair struct {
	iface ident.IfaceID
	ixp   ident.IXPID
}

// step4Evidence reads member m's Step 4 evidence where it lives. The
// near side is the corpus's list of the member's (near interface, IXP)
// crossing pairs, sorted by (near, IXP): the corpus's own slice,
// read-only. The peering side is the member's own interfaces with their
// IXP, written into buf (reused) sorted by interface: its rows of the
// domain g indexes, plus its run of offRoster, which is sorted by
// member.
func (c *Context) step4Evidence(g *groupIndex, offRoster []domEntry, m ident.MemberID, buf []obsPair) (nears []traix.NearPair, mems []obsPair) {
	if c.corpus != nil {
		nears = c.corpus.MemberPairs(m)
	}
	mems = buf[:0]
	for _, di := range g.rowsOf(m) {
		e := &g.domain[di]
		mems = append(mems, obsPair{e.iface, e.ixp})
	}
	i, _ := slices.BinarySearchFunc(offRoster, m, func(e domEntry, m ident.MemberID) int { return cmp.Compare(e.member, m) })
	for ; i < len(offRoster) && offRoster[i].member == m; i++ {
		mems = append(mems, obsPair{offRoster[i].iface, offRoster[i].ixp})
	}
	slices.SortFunc(mems, func(a, b obsPair) int { return cmp.Compare(a.iface, b.iface) })
	return nears, mems
}

// cachedRouter is one alias-resolved multi-IXP cluster in ID space,
// memoized per alias mode: the cluster interfaces (shared with the
// per-AS cluster memo, read-only) and the distinct IXPs the cluster
// faces (sorted ascending, which for interned IXPs equals name order).
type cachedRouter struct {
	member ident.MemberID
	ifaces []ident.IfaceID
	ixps   []ident.IXPID
}

// stepMultiIXP classifies multi-IXP routers (Fig 3 taxonomy) and
// propagates local/remote verdicts to memberships the earlier steps
// left unknown. When seed is nil, prior classes are read from rep
// itself (the normal pipeline flow); a non-nil seed supplies each
// (member, IXP) group's class from elsewhere (the standalone per-step
// evaluation).
//
// The sweep is sharded by member-run: the cached router list is sorted
// by AS number, so one member's routers are contiguous, and a run —
// all routers of one member — is the unit of one worker claim.
// This is safe because every read (classOf) and write (assign) of the
// propagation touches only domain entries of the run's own member:
// runs are disjoint in member, so no shard can observe another shard's
// writes, and processing runs in any order produces the same report as
// the serial in-order sweep. Within a run routers execute in cached
// order, preserving the intra-member read-after-write sequence (an
// earlier router's assignment is visible to a later router of the same
// member exactly as in the serial sweep). The geometry memos the sweep
// leans on (facDist, ringQuery) are mutex-guarded and
// value-deterministic, so the report is bit-identical for every worker
// count — pinned by TestStep4ShardDeterminism.
func (p *pipeline) stepMultiIXP(rep *Report, seed func(ident.MemberID, ident.IXPID) PeerClass) {
	c := p.ctx
	cached := c.multiRouters(p.alias, p.opt.Workers)

	// Materialize the public router list fresh per run for the members
	// the run classifies: Class is a per-run verdict and the Report owns
	// its slices (the cached clusters are shared across runs and must
	// stay immutable). A clean member's routers are the base report's
	// values, which are never written after their run, in the same
	// cached order. runs lists the [start, end) router ranges of the
	// dirty member-runs.
	routers := make([]*MultiIXPRouter, len(cached))
	var prev []*MultiIXPRouter
	if p.base != nil {
		prev = p.base.MultiRouters
	}
	var runs [][2]int32
	for i, j := 0, 0; i < len(cached); {
		m := cached[i].member
		end := i + 1
		for end < len(cached) && cached[end].member == m {
			end++
		}
		if p.isDirty(m) {
			for k := i; k < end; k++ {
				routers[k] = p.newRouter(&cached[k])
			}
			runs = append(runs, [2]int32{int32(i), int32(end)})
		} else {
			asn := c.ids.ASN(m)
			for j < len(prev) && prev[j].ASN < asn {
				j++
			}
			j += copy(routers[i:end], prev[j:])
		}
		i = end
	}
	rep.MultiRouters = routers

	// Memberships by (member, IXP) come pre-grouped from the context
	// (domain indexes, ascending by interface within each group — the
	// order classOf's first-decided rule requires).
	groups := p.groups

	// One run per claim: runs are mostly single routers, but the
	// per-router geometry dwarfs the claim, and run-granular claiming
	// keeps the tail balanced.
	par.Do(p.opt.Workers, len(runs), 1, func(lo, hi int) {
		s := c.getScratch()
		for _, run := range runs[lo:hi] {
			for i := run[0]; i < run[1]; i++ {
				p.classifyMultiRouter(s, groups, &cached[i], routers[i], seed)
			}
		}
		c.putScratch(s)
	})
}

// newRouter materializes a cached cluster as an unclassified public
// router.
func (p *pipeline) newRouter(cr *cachedRouter) *MultiIXPRouter {
	ids := p.ctx.ids
	ifaces := make([]netip.Addr, len(cr.ifaces))
	for j, id := range cr.ifaces {
		ifaces[j] = ids.Addr(id)
	}
	names := make([]string, len(cr.ixps))
	for j, x := range cr.ixps {
		names[j] = ids.IXPName(x)
	}
	return &MultiIXPRouter{ASN: ids.ASN(cr.member), Ifaces: ifaces, IXPs: names}
}

// classifyMultiRouter applies the Fig 3 rules to one cached cluster,
// writing the router's class and propagating verdicts into its
// member's domain entries. All side effects are confined to cr.member
// (see stepMultiIXP's sharding argument).
func (p *pipeline) classifyMultiRouter(s *scratch, groups *groupIndex, cr *cachedRouter, r *MultiIXPRouter, seed func(ident.MemberID, ident.IXPID) PeerClass) {
	c := p.ctx
	v := p.out
	classOf := func(m ident.MemberID, x ident.IXPID) PeerClass {
		if seed != nil {
			return seed(m, x)
		}
		for _, di := range groups.of(m, x) {
			if cls := v.class[di]; cls != ClassUnknown {
				return cls
			}
		}
		return ClassUnknown
	}
	// In the pipeline flow only unknowns are filled; the standalone
	// evaluation (seed != nil) records the step's verdict for every
	// involved membership, since the paper's rules phrase the outcome
	// as "the AS is inferred local/remote to all involved IXPs".
	standalone := seed != nil
	assign := func(m ident.MemberID, x ident.IXPID, cls PeerClass) {
		for _, di := range groups.of(m, x) {
			if v.class[di] == ClassUnknown || (standalone && v.step[di] == StepMultiIXP) {
				v.decide(int(di), cls, StepMultiIXP)
			}
		}
	}

	// Step 4's per-router geometry runs at the edge maps (a handful
	// of routers per run, nothing per-membership). The IXP partition
	// lives on shard scratch — the sweep allocates nothing per router.
	asFacs, _ := p.in.Colo.Facilities(r.ASN)
	localIXPs, remoteIXPs, unknownIXPs := s.ixpLocal[:0], s.ixpRemote[:0], s.ixpUnknown[:0]
	for _, x := range cr.ixps {
		switch classOf(cr.member, x) {
		case ClassLocal:
			localIXPs = append(localIXPs, x)
		case ClassRemote:
			remoteIXPs = append(remoteIXPs, x)
		default:
			unknownIXPs = append(unknownIXPs, x)
		}
	}
	s.ixpLocal, s.ixpRemote, s.ixpUnknown = localIXPs, remoteIXPs, unknownIXPs
	targets := unknownIXPs
	if standalone {
		targets = cr.ixps
	}
	switch {
	case len(localIXPs) > 0 && len(remoteIXPs) == 0 && p.allShareFacility(s, r.IXPs):
		// Rule 1 (Fig 3a): local to one IXP and all involved IXPs
		// share a facility -> local to all.
		r.Class = RouterLocal
		for _, x := range targets {
			assign(cr.member, x, ClassLocal)
		}
	case len(remoteIXPs) > 0 && len(localIXPs) == 0:
		// Rule 2 (Fig 3b): remote to one IXP; every other involved
		// IXP whose facilities all lie closer to the anchor than
		// the member possibly is (condition 2(b), applied per IXP —
		// a router at least dmin away from the anchor cannot sit in
		// any of them) inherits the remote verdict, as does
		// everything when all involved IXPs share one facility
		// (condition 2(a)).
		anchor := remoteIXPs[0]
		anchorFacs := p.in.Colo.IXPFacilities[c.ids.IXPName(anchor)]
		dMinAS, _, okAS := p.facDist(asFacs, anchorFacs)
		if !okAS {
			dMinAS = p.anchorRingDMin(groups.of(cr.member, anchor))
		}
		all2a := p.allShareFacility(s, r.IXPs)
		assigned := 0
		for _, x := range targets {
			if x == anchor {
				continue
			}
			holds := all2a
			if !holds && dMinAS > 0 {
				_, maxD, ok := p.facDist(p.in.Colo.IXPFacilities[c.ids.IXPName(x)], anchorFacs)
				holds = ok && maxD < dMinAS
			}
			if holds {
				assign(cr.member, x, ClassRemote)
				assigned++
			}
		}
		if all2a || assigned > 0 {
			r.Class = RouterRemote
			if standalone {
				assign(cr.member, anchor, ClassRemote)
			}
		}
	case len(localIXPs) > 0:
		// Rule 3 (Fig 3c): local to IXPL; other IXPs that share no
		// facility (or are provably too far) form the remote subset.
		r.Class = RouterHybrid
		ixpL := localIXPs[0]
		if standalone {
			assign(cr.member, ixpL, ClassLocal)
		}
		for _, x := range targets {
			if x != ixpL && p.hybridRemoteCondition(s, r.ASN, c.ids.IXPName(ixpL), c.ids.IXPName(x)) {
				assign(cr.member, x, ClassRemote)
			}
		}
		if len(remoteIXPs) == 0 && len(unknownIXPs) == 0 {
			r.Class = RouterLocal
		}
	default:
		// No seed class at any involved IXP (or only non-propagating
		// remote evidence): the router stays unclassified.
		r.Class = RouterUnclassified
	}
	if r.Class == RouterUnclassified && len(remoteIXPs) > 0 && len(localIXPs) == 0 {
		// Remote evidence existed but the geometry could not extend
		// it: the router itself is still a remote one for the
		// Fig 9d taxonomy.
		r.Class = RouterRemote
	}
}

// allShareFacility reports whether the named IXPs have at least one
// facility in common, per the colocation database. The k-way
// intersection runs on the scratch's epoch-stamped facility counters:
// a facility survives round j when all of the first j lists contained
// it, so no per-call set materialises.
func (p *pipeline) allShareFacility(s *scratch, ixps []string) bool {
	if len(ixps) == 0 {
		return false
	}
	e := s.nextEpoch()
	alive := 0
	for _, f := range p.in.Colo.IXPFacilities[ixps[0]] {
		if !s.growFacs(f) {
			continue
		}
		if s.facStamp[f] != e {
			s.facStamp[f] = e
			s.facCount[f] = 1
			alive++
		}
	}
	for round := int32(2); round <= int32(len(ixps)); round++ {
		if alive == 0 {
			return false
		}
		alive = 0
		for _, f := range p.in.Colo.IXPFacilities[ixps[round-1]] {
			if s.stamped(f, e) && s.facCount[f] == round-1 {
				s.facCount[f] = round
				alive++
			}
		}
	}
	return alive > 0
}

// anchorRingDMin derives a lower bound on the member router's distance
// from the anchor IXP out of the Step-3 feasible ring of the anchor
// membership interfaces (domain indexes of one (member, IXP) group),
// for use when colocation data is missing. A metro-radius slack
// absorbs the VP-to-facility offset.
func (p *pipeline) anchorRingDMin(group []int32) float64 {
	best := 0.0
	for _, di := range group {
		e := p.out.dom.rows[di]
		rtt := p.rtt[e.iface]
		if math.IsNaN(rtt) {
			continue
		}
		dMin, _ := p.feasibleRing(e.iface, rtt)
		if d := dMin - 2*geo.MetroSeparationKm; d > best {
			best = d
		}
	}
	return best
}

// hybridRemoteCondition implements conditions 3(a)/3(b) for one other
// IXP: it belongs to the remote subset when it shares no facility with
// the local anchor, or when its closest facility is provably farther
// than the router can be from the anchor. Set membership runs on the
// scratch's epoch stamps and the AS∩anchor intersection lands in the
// scratch facility buffer, so the check allocates nothing.
func (p *pipeline) hybridRemoteCondition(s *scratch, asn netsim.ASN, ixpL, other string) bool {
	lFacs := p.in.Colo.IXPFacilities[ixpL]
	oFacs := p.in.Colo.IXPFacilities[other]
	e := s.nextEpoch()
	for _, f := range lFacs {
		if s.growFacs(f) {
			s.facStamp[f] = e
		}
	}
	shared := false
	for _, f := range oFacs {
		if s.stamped(f, e) {
			shared = true
			break
		}
	}
	if !shared {
		return true // condition 3(a)
	}
	asFacs, ok := p.in.Colo.Facilities(asn)
	if !ok {
		return false
	}
	common := s.facs[:0]
	for _, f := range asFacs {
		if s.stamped(f, e) {
			common = append(common, f)
		}
	}
	s.facs = common
	if len(common) == 0 {
		return false
	}
	// The router sits in one of the common facilities; if every
	// facility of the other IXP is farther from all of them than the
	// metro radius, the router cannot be local there.
	minD, _, ok := p.facDist(common, oFacs)
	return ok && minD > geo.MetroSeparationKm
}

// ---------------------------------------------------------------------------
// Step 5: private-connectivity voting (Section 5.2, Step 5)

// stepPrivate applies the Constrained-Facility-Search-style voting to
// memberships still unknown after Steps 1-4.
func (p *pipeline) stepPrivate() {
	if p.ctx.priv.Len() == 0 {
		return
	}
	p.ctx.aliasPlane()
	p.forEachInference(p.classifyPrivate)
}

func (p *pipeline) classifyPrivate(s *scratch, e domEntry, i int) {
	if p.out.class[i] != ClassUnknown {
		return
	}
	c := p.ctx
	// Private neighbours per member come precomputed from the context.
	ns := c.priv.Of(e.member)
	if len(ns) == 0 {
		return
	}
	// Private AS neighbours of the router facing the IXP: the alias set
	// of the member interface among its AS's private-link interfaces.
	members := p.privRouterNeighbours(s, e, ns)
	if len(members) == 0 {
		return
	}
	vote := s.nextEpoch()

	// Vote: the facilities most common among the neighbours, which
	// must also clear a majority of the voters (private
	// interconnects overwhelmingly live inside one facility, so the
	// top-voted facility is where this router most plausibly sits).
	s.facs = s.facs[:0]
	voters := 0
	for _, m := range members {
		facs, ok := c.colo.Facilities(m)
		if !ok {
			continue
		}
		voters++
		for _, f := range facs {
			if !s.growFacs(f) {
				continue
			}
			if s.facStamp[f] != vote {
				s.facStamp[f] = vote
				s.facCount[f] = 1
				s.facs = append(s.facs, f)
			} else {
				s.facCount[f]++
			}
		}
	}
	if voters < 2 {
		return // a single voter cannot corroborate a facility
	}
	maxCount := int32(0)
	for _, f := range s.facs {
		if n := s.facCount[f]; n > maxCount {
			maxCount = n
		}
	}
	need := int32(voters+1) / 2
	if maxCount < need {
		return // no facility is common to a neighbour majority
	}
	s.fCommon = s.fCommon[:0]
	for _, f := range s.facs {
		if s.facCount[f] == maxCount {
			s.fCommon = append(s.fCommon, f)
		}
	}
	// FIXP: feasible IXP facilities when an RTT ring exists,
	// otherwise the IXP's full facility list.
	fIXP := c.colo.IXPFacilities(e.ixp)
	if rtt := p.rtt[e.iface]; !math.IsNaN(rtt) {
		slot := p.bestVP[e.iface]
		dMin, dMax := p.feasibleRing(e.iface, rtt)
		fIXP = p.ixpRing(e.ixp, slot, dMin, dMax, s.ringA)
		s.ringA = fIXP[:0]
	}
	// The paper requires |FIXP ∩ Fcommon| = 1 for a local verdict;
	// with top-count voting Fcommon is nearly always a single
	// facility, and restricting the intersection to the top-voted
	// facilities keeps the condition sharp even on vote ties inside
	// one exchange.
	// Local when the voting pins the router to exactly one feasible
	// IXP facility (the paper's |FIXP ∩ Fcommon| = 1 condition), or
	// when every top-voted candidate is an IXP facility — then the
	// member is colocated with the exchange whichever of them hosts
	// the router. fCommon entries are distinct, so counting its
	// members present in FIXP equals the distinct-intersection size
	// netsim.CommonFacilities would report — without the allocation.
	common := 0
	for _, f := range s.fCommon {
		for _, x := range fIXP {
			if x == f {
				common++
				break
			}
		}
	}
	if common == 1 || (common > 1 && common == len(s.fCommon)) {
		p.out.decide(i, ClassLocal, StepPrivate)
	} else {
		p.out.decide(i, ClassRemote, StepPrivate)
	}
}
