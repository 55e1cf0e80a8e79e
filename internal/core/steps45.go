package core

import (
	"math"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"rpeer/internal/geo"
	"rpeer/internal/ident"
	"rpeer/internal/netsim"
)

// ---------------------------------------------------------------------------
// Step 4: multi-IXP router inference (Section 5.2, Step 4)

// obsPair is one (interface, IXP) observation in ID space.
type obsPair struct {
	iface ident.IfaceID
	ixp   ident.IXPID
}

// asObs gathers, per member AS, the near-side interfaces observed in
// IXP crossings together with the crossed IXP, plus the AS's own
// peering interfaces from the dataset — the inputs of the multi-IXP
// candidate search. Everything is deduplicated and sorted so cluster
// IXP lookups are binary searches.
type asObs struct {
	member ident.MemberID
	// nears holds the deduplicated near (interface, IXP) pairs, sorted
	// by (iface, ixp); nearIfaces the distinct near interfaces.
	nears      []obsPair
	nearIfaces []ident.IfaceID
	// mems holds the AS's peering-LAN interfaces with their IXP,
	// sorted by iface (one entry per interface: the dataset maps each
	// interface to exactly one IXP).
	mems []obsPair
	// nixps is the number of distinct IXPs across nears and mems.
	nixps int
}

// nearIXPsOf iterates the IXPs observed behind one near interface.
func (o *asObs) nearIXPsOf(iface ident.IfaceID, fn func(ident.IXPID)) {
	i := sort.Search(len(o.nears), func(i int) bool { return o.nears[i].iface >= iface })
	for ; i < len(o.nears) && o.nears[i].iface == iface; i++ {
		fn(o.nears[i].ixp)
	}
}

// memIXPOf returns the IXP of one of the AS's peering interfaces.
func (o *asObs) memIXPOf(iface ident.IfaceID) (ident.IXPID, bool) {
	i := sort.Search(len(o.mems), func(i int) bool { return o.mems[i].iface >= iface })
	if i < len(o.mems) && o.mems[i].iface == iface {
		return o.mems[i].ixp, true
	}
	return 0, false
}

// obsIndex returns the per-AS crossing/membership observations,
// building them lazily. The index depends only on the substrate
// (crossings and the dataset's interface records), so it survives
// every run and is invalidated only by Apply. Entries are sorted by
// AS number — the deterministic candidate order of the Step 4 rules.
func (c *Context) obsIndex() []*asObs {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	if c.obsBuilt {
		return c.obs
	}
	// Member IDs are dense, so the per-member grouping runs on flat
	// count/offset columns and two contiguous pair slabs — no map of
	// individually-growing slices. The dataset map is walked once into
	// a record list, which the fill pass reuses; the map's iteration
	// order varies, but every pair lands in its member's slab region
	// and the regions are sorted below, so the index is
	// order-independent.
	nm := c.ids.NumMembers()
	nearOff := make([]int32, nm+1)
	memOff := make([]int32, nm+1)
	for i := 0; i < c.cross.Len(); i++ {
		nearOff[c.cross.NearAS[i]+1]++
	}
	memPair := func(ip netip.Addr, name string) (ident.MemberID, obsPair, bool) {
		iface, ok := c.ids.Iface(ip)
		if !ok {
			return 0, obsPair{}, false
		}
		member, ok := c.ids.Member(c.in.Dataset.IfaceASN[ip])
		if !ok {
			return 0, obsPair{}, false
		}
		ixp, ok := c.ids.IXP(name)
		if !ok {
			return 0, obsPair{}, false
		}
		return member, obsPair{iface, ixp}, true
	}
	type memRec struct {
		m  ident.MemberID
		pr obsPair
	}
	recs := make([]memRec, 0, len(c.in.Dataset.IfaceIXP))
	for ip, name := range c.in.Dataset.IfaceIXP {
		if m, pr, ok := memPair(ip, name); ok {
			recs = append(recs, memRec{m, pr})
			memOff[m+1]++
		}
	}
	populated := 0
	for m := 0; m < nm; m++ {
		if nearOff[m+1] != 0 || memOff[m+1] != 0 {
			populated++
		}
		nearOff[m+1] += nearOff[m]
		memOff[m+1] += memOff[m]
	}
	nearSlab := make([]obsPair, nearOff[nm])
	memSlab := make([]obsPair, memOff[nm])
	nearCur := append([]int32(nil), nearOff[:nm]...)
	memCur := append([]int32(nil), memOff[:nm]...)
	for i := 0; i < c.cross.Len(); i++ {
		m := c.cross.NearAS[i]
		nearSlab[nearCur[m]] = obsPair{c.cross.Near[i], c.cross.IXP[i]}
		nearCur[m]++
	}
	for _, r := range recs {
		memSlab[memCur[r.m]] = r.pr
		memCur[r.m]++
	}

	// Assembly: the asObs structs live in one arena and the distinct
	// near-interface lists in one shared slab; both are pre-sized so
	// the appends below can never reallocate out from under the
	// pointers already handed out.
	ixpMark := make([]uint32, c.ids.NumIXPs())
	epoch := uint32(0)
	arena := make([]asObs, 0, populated)
	obs := make([]*asObs, 0, populated)
	ifaceSlab := make([]ident.IfaceID, 0, len(nearSlab))
	for m := 0; m < nm; m++ {
		nears := nearSlab[nearOff[m]:nearOff[m+1]]
		mems := memSlab[memOff[m]:memOff[m+1]]
		if len(nears) == 0 && len(mems) == 0 {
			continue
		}
		sort.Slice(nears, func(i, j int) bool {
			if nears[i].iface != nears[j].iface {
				return nears[i].iface < nears[j].iface
			}
			return nears[i].ixp < nears[j].ixp
		})
		dedup := nears[:0]
		for i, pr := range nears {
			if i == 0 || pr != nears[i-1] {
				dedup = append(dedup, pr)
			}
		}
		sort.Slice(mems, func(i, j int) bool { return mems[i].iface < mems[j].iface })
		arena = append(arena, asObs{member: ident.MemberID(m), nears: dedup, mems: mems})
		o := &arena[len(arena)-1]
		start := len(ifaceSlab)
		for i, pr := range o.nears {
			if i == 0 || pr.iface != o.nears[i-1].iface {
				ifaceSlab = append(ifaceSlab, pr.iface)
			}
		}
		o.nearIfaces = ifaceSlab[start:len(ifaceSlab):len(ifaceSlab)]
		epoch++
		for _, pr := range o.nears {
			if ixpMark[pr.ixp] != epoch {
				ixpMark[pr.ixp] = epoch
				o.nixps++
			}
		}
		for _, pr := range o.mems {
			if ixpMark[pr.ixp] != epoch {
				ixpMark[pr.ixp] = epoch
				o.nixps++
			}
		}
		obs = append(obs, o)
	}
	sort.Slice(obs, func(i, j int) bool { return c.ids.ASN(obs[i].member) < c.ids.ASN(obs[j].member) })
	c.obs = obs
	c.obsBuilt = true
	return obs
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
// itself (the normal pipeline flow); a non-nil seed supplies them from
// elsewhere (the standalone per-step evaluation).
//
// The sweep is sharded by member-run: the cached router list is sorted
// by AS number, so one member's routers are contiguous, and a run —
// all routers of one member — is the unit workers claim atomically.
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
func (p *pipeline) stepMultiIXP(rep *Report, seed func(netsim.ASN, string) PeerClass) {
	c := p.ctx
	cached := c.multiRouters(p.alias, p.opt.Workers)

	// Materialize the public router list fresh per run: Class is a
	// per-run verdict and the Report owns its slices (the cached
	// clusters are shared across runs and must stay immutable).
	routers := make([]*MultiIXPRouter, len(cached))
	for i := range cached {
		cr := &cached[i]
		ifaces := make([]netip.Addr, len(cr.ifaces))
		for j, id := range cr.ifaces {
			ifaces[j] = c.ids.Addr(id)
		}
		names := make([]string, len(cr.ixps))
		for j, x := range cr.ixps {
			names[j] = c.ids.IXPName(x)
		}
		routers[i] = &MultiIXPRouter{ASN: c.ids.ASN(cr.member), Ifaces: ifaces, IXPs: names}
	}
	rep.MultiRouters = routers

	// Memberships by (member, IXP) come pre-grouped from the context
	// (domain indexes, ascending by interface within each group — the
	// order classOf's first-decided rule requires).
	groups := c.memberGroups()

	// Partition into contiguous same-member runs: runStarts[k] is the
	// first router of run k, with a closing sentinel.
	runStarts := make([]int32, 0, len(cached)+1)
	for i := range cached {
		if i == 0 || cached[i].member != cached[i-1].member {
			runStarts = append(runStarts, int32(i))
		}
	}
	runStarts = append(runStarts, int32(len(cached)))
	nRuns := len(runStarts) - 1

	sweepRun := func(s *scratch, k int) {
		for i := runStarts[k]; i < runStarts[k+1]; i++ {
			p.classifyMultiRouter(s, rep, groups, &cached[i], routers[i], seed)
		}
	}

	workers := p.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nRuns {
		workers = nRuns
	}
	if workers <= 1 {
		s := c.getScratch()
		for k := 0; k < nRuns; k++ {
			sweepRun(s, k)
		}
		c.putScratch(s)
		return
	}
	// Workers claim one run per atomic grab: runs are mostly single
	// routers, but the per-router geometry dwarfs the atomic, and
	// run-granular claiming keeps the tail balanced.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := c.getScratch()
			defer c.putScratch(s)
			for {
				k := int(next.Add(1)) - 1
				if k >= nRuns {
					return
				}
				sweepRun(s, k)
			}
		}()
	}
	wg.Wait()
}

// classifyMultiRouter applies the Fig 3 rules to one cached cluster,
// writing the router's class and propagating verdicts into its
// member's domain entries. All side effects are confined to cr.member
// (see stepMultiIXP's sharding argument).
func (p *pipeline) classifyMultiRouter(s *scratch, rep *Report, groups map[uint64][]int32, cr *cachedRouter, r *MultiIXPRouter, seed func(netsim.ASN, string) PeerClass) {
	c := p.ctx
	classOf := func(m ident.MemberID, x ident.IXPID) PeerClass {
		if seed != nil {
			return seed(c.ids.ASN(m), c.ids.IXPName(x))
		}
		for _, di := range groups[groupKey(m, x)] {
			if inf := p.infAt(rep, int(di)); inf.Class != ClassUnknown {
				return inf.Class
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
		for _, di := range groups[groupKey(m, x)] {
			inf := p.infAt(rep, int(di))
			if inf.Class == ClassUnknown || (standalone && inf.Step == StepMultiIXP) {
				inf.Class = cls
				inf.Step = StepMultiIXP
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
			dMinAS = p.anchorRingDMin(groups[groupKey(cr.member, anchor)])
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
		s.growFacs(f)
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
			// An out-of-range facility was never stamped, so it cannot
			// be a survivor.
			if int(f) < len(s.facStamp) && s.facStamp[f] == e && s.facCount[f] == round-1 {
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
		e := p.domEntries[di]
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
		s.growFacs(f)
		s.facStamp[f] = e
	}
	shared := false
	for _, f := range oFacs {
		if int(f) < len(s.facStamp) && s.facStamp[f] == e {
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
		if int(f) < len(s.facStamp) && s.facStamp[f] == e {
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
func (p *pipeline) stepPrivate(rep *Report) {
	if p.ctx.priv.Len() == 0 {
		return
	}
	p.ctx.aliasPlane()
	p.forEachInference(rep, p.classifyPrivate)
}

func (p *pipeline) classifyPrivate(s *scratch, e domEntry, inf *Inference) {
	if inf.Class != ClassUnknown {
		return
	}
	c := p.ctx
	// Private neighbours per member come precomputed from the context.
	ns := c.byASPriv[e.member]
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
		inf.Class = ClassLocal
	} else {
		inf.Class = ClassRemote
	}
	inf.Step = StepPrivate
}
