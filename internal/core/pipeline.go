package core

import (
	"math"

	"rpeer/internal/alias"
	"rpeer/internal/geo"
	"rpeer/internal/ident"
	"rpeer/internal/netsim"
	"rpeer/internal/par"
	"rpeer/internal/pingsim"
	"rpeer/internal/registry"
	"rpeer/internal/traix"
)

// Inputs bundles the observable artefacts the pipeline consumes.
//
// World is used only as the live network substrate (facility
// coordinates, which are public PDB/Inflect data, and alias probing);
// the pipeline never reads ground-truth membership kinds.
type Inputs struct {
	World   *netsim.World
	Dataset *registry.Dataset
	Colo    *registry.ColoDB
	Ping    *pingsim.Result
	Paths   traix.Paths
	// Speed is the RTT-to-distance model of Step 3.
	Speed geo.SpeedModel
	// Seed drives alias-probing randomness.
	Seed int64
}

// Options selects the steps and knobs of a run, mainly for the
// ablation benchmarks.
type Options struct {
	// Steps lists the steps a run executes, in order (DefaultOptions:
	// the paper's 1, 2+3, 4, 5). Nil runs none; StepNone and
	// StepBaseline are not pipeline steps and fail the run.
	Steps []Step
	// Workers bounds the shard pool every pipeline stage fans out over
	// (0 = GOMAXPROCS, 1 = serial). Steps 1, 2+3 and 5 classify each
	// membership independently from shared read-only state; Step 4's
	// propagation shards by member-run — all routers of one member —
	// whose read/write sets are disjoint across members. The report is
	// therefore bit-identical for every worker count.
	Workers int
	// DisableVminBound zeroes the lower distance bound (ablation: how
	// much does the fitted vmin curve matter?).
	DisableVminBound bool
	// UseTracerouteRTT enables the Section 8 "Beyond Pings" extension:
	// interfaces without ping coverage receive traceroute-derived RTT
	// minimums (see beyondpings.go).
	UseTracerouteRTT bool
	// AliasMode selects the alias-resolution confidence trade-off.
	AliasMode alias.Mode
}

// DefaultOptions runs the full methodology in the paper's order.
func DefaultOptions() Options {
	return Options{
		Steps:     []Step{StepPortCapacity, StepRTTColo, StepMultiIXP, StepPrivate},
		AliasMode: alias.ModePrecision,
	}
}

// newDomain instantiates the run's report: verdict columns aligned
// with the context's current domain version, so the sharded steps
// index straight into them. Without a base every row starts
// all-unknown and the run classifies them all. With one, the rows are
// copied from the base (a straight copy when the domain version is
// unchanged, else a merge of two versions in domain order; every clean
// row exists in both) and only the dirty members' rows are reset and
// listed in p.rows for the steps. A base whose dirty members hold more
// than 1/incrementalCutoff of the domain is dropped.
func (p *pipeline) newDomain(base *Report) *Report {
	c := p.ctx
	dom, groups := c.domainGroups()
	gen := c.gen
	if base != nil {
		var ok bool
		if p.rows, ok = c.dirtyRows(base.gen, groups, &p.dirty); !ok {
			base = nil
		}
	}
	v := newVerdicts(dom)
	p.out, p.groups, p.base = v, groups, base
	if base != nil {
		copyRows(v, base.v)
	}
	for k := range p.numRows() {
		i := p.row(k)
		id := dom.rows[i].iface
		rtt := p.rtt[id]
		v.reset(i, rtt)
		if p.traceDerived != nil && !math.IsNaN(rtt) && p.traceDerived.Get(uint32(id)) {
			v.trace.Set(uint32(i))
		}
	}
	return &Report{v: v, gen: gen}
}

// copyRows copies into dst every row of old (a base report's columns)
// whose membership is still in dst's domain version. Over an unchanged
// version that is a copy of each column; otherwise both versions are
// in domain order and one merge pairs their rows.
func copyRows(dst, old *verdicts) {
	if dst.dom == old.dom {
		copy(dst.class, old.class)
		copy(dst.step, old.step)
		copy(dst.feas, old.feas)
		copy(dst.rtt, old.rtt)
		dst.trace.CopyFrom(&old.trace)
		return
	}
	j := 0
	for i := range dst.class {
		c := -1
		for j < len(old.class) {
			if c = compareRows(old.dom, j, dst.dom, i); c >= 0 {
				break
			}
			j++
		}
		if c == 0 {
			dst.copyRow(i, old, j)
			j++
		}
	}
}

// pipeline is one run's view over the shared Context: the RTT columns
// matching Options.UseTracerouteRTT and the option knobs. It is cheap
// to build and must not outlive its context.
type pipeline struct {
	in  Inputs
	opt Options
	ctx *Context
	// alias holds the resolution memos of opt.AliasMode.
	alias *aliasMemo

	// rtt is the per-interface campaign minimum across usable VPs,
	// indexed by IfaceID (NaN = unmeasured).
	rtt []float64
	// bestVP is the VP slot that measured the interface's minimum
	// (-1 = none).
	bestVP []int32
	// rounds marks interfaces whose minimum came from a rounding LG.
	rounds *ident.Bits
	// traceDerived marks interfaces whose RTT came from traceroutes
	// (nil unless Options.UseTracerouteRTT).
	traceDerived *ident.Bits

	// out holds the columns of the report newDomain produced (the one
	// report every step of the run classifies), aligned with the
	// domain version out.dom; groups indexes that version per member.
	out    *verdicts
	groups *groupIndex

	// base is the report the run copies clean members from (nil: every
	// member is dirty). rows lists the dirty members' domain indexes,
	// the rows the steps classify, and dirty marks those members by
	// MemberID; both are unset without a base.
	base  *Report
	rows  []int32
	dirty ident.Bits
}

// scratch holds the per-shard reusable state of the classification hot
// path: feasible-ring result buffers plus the epoch-stamped mark
// columns Step 5's set logic runs on. Shards never share a scratch;
// instances are pooled on the context because the mark columns are
// sized to the ID spaces (far too large to allocate per run).
type scratch struct {
	// ringA and ringB are reusable feasible-ring result buffers.
	ringA, ringB []netsim.FacilityID

	// epoch stamps the mark columns; bumping it invalidates every mark
	// in O(1). ifaceMark marks the member interface's alias set, and
	// memMark the distinct neighbours behind it.
	epoch     uint32
	ifaceMark []uint32
	memMark   []uint32
	facStamp  []uint32
	facCount  []int32

	facs    []netsim.FacilityID
	fCommon []netsim.FacilityID

	// ixpLocal/ixpRemote/ixpUnknown hold Step 4's per-router partition
	// of involved IXPs by prior verdict.
	ixpLocal, ixpRemote, ixpUnknown []ident.IXPID

	// queue is Step 5's alias-set search frontier (markPrivCluster).
	queue []ident.IfaceID
}

// sizeTo grows the mark columns to the current ID spaces. Fresh
// (zeroed) segments can never collide with a live epoch because
// nextEpoch starts at 1 and wrap-around clears everything.
func (s *scratch) sizeTo(ifaces, members, facs int) {
	if len(s.ifaceMark) < ifaces {
		s.ifaceMark = append(s.ifaceMark, make([]uint32, ifaces-len(s.ifaceMark))...)
	}
	if len(s.memMark) < members {
		s.memMark = append(s.memMark, make([]uint32, members-len(s.memMark))...)
	}
	if len(s.facStamp) < facs {
		s.facStamp = append(s.facStamp, make([]uint32, facs-len(s.facStamp))...)
		s.facCount = append(s.facCount, make([]int32, facs-len(s.facCount))...)
	}
}

// growFacs widens the facility stamp columns to cover id and reports
// whether id can be stamped: colo rows may name facilities beyond the
// geometry table, or (from an unchecked world file) a negative ID, and
// stamping must never index out of range. A negative ID is never
// stamped. Fresh segments are zeroed, so they can never collide with a
// live epoch.
func (s *scratch) growFacs(id netsim.FacilityID) bool {
	if id < 0 {
		return false
	}
	if n := int(id) + 1; n > len(s.facStamp) {
		s.facStamp = append(s.facStamp, make([]uint32, n-len(s.facStamp))...)
		s.facCount = append(s.facCount, make([]int32, n-len(s.facCount))...)
	}
	return true
}

// stamped reports whether facility id carries epoch e. An ID outside
// the columns, negative or beyond them, was never stamped.
func (s *scratch) stamped(id netsim.FacilityID, e uint32) bool {
	return id >= 0 && int(id) < len(s.facStamp) && s.facStamp[id] == e
}

// nextEpoch returns a fresh, never-live epoch value.
func (s *scratch) nextEpoch() uint32 {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.ifaceMark {
			s.ifaceMark[i] = 0
		}
		for i := range s.memMark {
			s.memMark[i] = 0
		}
		for i := range s.facStamp {
			s.facStamp[i] = 0
		}
		s.epoch = 1
	}
	return s.epoch
}

// getScratch pops a pooled scratch sized to the current ID spaces.
func (c *Context) getScratch() *scratch {
	s, _ := c.scratchPool.Get().(*scratch)
	if s == nil {
		s = &scratch{}
	}
	s.sizeTo(c.ids.NumIfaces(), c.ids.NumMembers(), len(c.facVecs))
	return s
}

func (c *Context) putScratch(s *scratch) { c.scratchPool.Put(s) }

// newPipeline binds a run view to the context. Every pipeline runs
// over a Context; there is no separate context-free code path.
func (c *Context) newPipeline(opt Options) *pipeline {
	p := &pipeline{in: c.in, opt: opt, ctx: c, alias: c.aliasMemoFor(opt.AliasMode)}
	p.bind()
	return p
}

// bind selects the context columns matching the pipeline options.
func (p *pipeline) bind() {
	c := p.ctx
	if p.opt.UseTracerouteRTT {
		p.rtt, p.bestVP, p.rounds, p.traceDerived = c.traceAugmented()
	} else {
		p.rtt, p.bestVP, p.rounds, p.traceDerived = c.rtt, c.bestVP, &c.rounds, nil
	}
}

// ---------------------------------------------------------------------------
// Sharded per-membership execution

// shardChunk is the number of entries one claim of the shard pool
// covers: large enough to amortise the claim and its pooled scratch,
// small enough to keep the tail balanced.
const shardChunk = 256

// forEachInference applies fn to every row the run classifies — the
// dirty members' rows, or the whole domain without a base — fanning
// them out across the shard pool in claims of shardChunk rows. fn must
// classify its entry from shared read-only state and write only row i
// of p.out (plus its private scratch); because no entry reads another
// entry's verdict, the shard schedule cannot leak into the report and
// the output is bit-identical for every worker count — the merge is
// the writes themselves.
func (p *pipeline) forEachInference(fn func(s *scratch, e domEntry, i int)) {
	rows := p.out.dom.rows
	par.Do(p.opt.Workers, p.numRows(), shardChunk, func(lo, hi int) {
		s := p.ctx.getScratch()
		for k := lo; k < hi; k++ {
			i := p.row(k)
			fn(s, rows[i], i)
		}
		p.ctx.putScratch(s)
	})
}

// numRows returns how many rows the run classifies, and row(k) the
// domain index of the k-th.
func (p *pipeline) numRows() int {
	if p.base != nil {
		return len(p.rows)
	}
	return len(p.out.class)
}

func (p *pipeline) row(k int) int {
	if p.base != nil {
		return int(p.rows[k])
	}
	return k
}

// isDirty reports whether the run re-classifies member m.
func (p *pipeline) isDirty(m ident.MemberID) bool {
	return p.base == nil || p.dirty.Get(uint32(m))
}

// ---------------------------------------------------------------------------
// Step 1: port capacities (Section 5.2, Step 1)

// stepPortCapacity flags reseller customers: a member whose reported
// port capacity is below the IXP's minimum physical capacity can only
// be buying a virtual port through a reseller, hence is remote.
func (p *pipeline) stepPortCapacity() {
	p.forEachInference(p.classifyPortCapacity)
}

func (p *pipeline) classifyPortCapacity(_ *scratch, e domEntry, i int) {
	if p.out.class[i] != ClassUnknown {
		return
	}
	cmin, ok := p.ctx.colo.MinPort(e.ixp)
	if !ok {
		return // no pricing data for this IXP
	}
	port, ok := p.ctx.colo.Port(e.ixp, e.member)
	if !ok {
		return
	}
	if port < cmin {
		p.out.decide(i, ClassRemote, StepPortCapacity)
	}
}

// ---------------------------------------------------------------------------
// Steps 2+3: colocation-informed RTT interpretation (Section 5.2)

// feasibleRing returns the [dmin, dmax] distance ring for an interface
// measurement, applying the rounding-LG correction (dmin computed from
// RTT-1) and the vmin ablation toggle.
func (p *pipeline) feasibleRing(iface ident.IfaceID, rtt float64) (dMin, dMax float64) {
	dMax = p.in.Speed.DMax(rtt)
	low := rtt
	if p.rounds.Get(uint32(iface)) {
		low = rtt - 1
		if low < 0 {
			low = 0
		}
	}
	if p.opt.DisableVminBound {
		return 0, dMax
	}
	return p.in.Speed.DMin(low), dMax
}

// ixpRing filters the IXP's facilities to those inside [dMin, dMax]
// from the VP, through the context's memoized distance index, reusing
// buf.
func (p *pipeline) ixpRing(ixp ident.IXPID, slot int32, dMin, dMax float64, buf []netsim.FacilityID) []netsim.FacilityID {
	return p.ctx.ringQuery(slot, ringIXP, uint32(ixp), p.ctx.colo.IXPFacilities(ixp), dMin, dMax, buf[:0])
}

// asRing is ixpRing for a member's colocation facilities.
func (p *pipeline) asRing(m ident.MemberID, facs []netsim.FacilityID, slot int32, dMin, dMax float64, buf []netsim.FacilityID) []netsim.FacilityID {
	return p.ctx.ringQuery(slot, ringMember, uint32(m), facs, dMin, dMax, buf[:0])
}

// stepRTTColo applies the Step 3 rules to every membership with a
// usable RTT minimum.
func (p *pipeline) stepRTTColo() {
	p.forEachInference(p.classifyRTTColo)
}

func (p *pipeline) classifyRTTColo(s *scratch, e domEntry, i int) {
	if p.out.class[i] != ClassUnknown {
		return
	}
	rtt := p.rtt[e.iface]
	if math.IsNaN(rtt) {
		return
	}
	slot := p.bestVP[e.iface]
	dMin, dMax := p.feasibleRing(e.iface, rtt)

	feasIXP := p.ixpRing(e.ixp, slot, dMin, dMax, s.ringA)
	s.ringA = feasIXP[:0]
	p.out.feas[i] = int32(len(feasIXP))

	asFacs, hasData := p.ctx.colo.Facilities(e.member)
	feasAS := p.asRing(e.member, asFacs, slot, dMin, dMax, s.ringB)
	s.ringB = feasAS[:0]

	switch {
	case len(feasIXP) == 0:
		// Rule 1(i): no IXP facility can explain the RTT.
		p.out.decide(i, ClassRemote, StepRTTColo)
	case hasData && intersects(feasAS, feasIXP):
		// Rule 2: member colocated in a feasible IXP facility.
		p.out.decide(i, ClassLocal, StepRTTColo)
	case hasData && len(feasAS) > 0:
		// Rule 1(ii): member sits in a feasible facility where the
		// IXP has no presence.
		p.out.decide(i, ClassRemote, StepRTTColo)
	default:
		// Rule 3: colocation data likely incomplete; defer to the
		// following steps.
	}
}

func intersects(a, b []netsim.FacilityID) bool {
	for _, fa := range a {
		for _, fb := range b {
			if fa == fb {
				return true
			}
		}
	}
	return false
}

// facDist computes min and max distance between two facility sets via
// the context's precomputed unit vectors; ok is false when either set
// is empty.
func (p *pipeline) facDist(a, b []netsim.FacilityID) (minKm, maxKm float64, ok bool) {
	return p.ctx.facDist(a, b)
}
