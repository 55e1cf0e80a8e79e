package core

import (
	"math"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"

	"rpeer/internal/alias"
	"rpeer/internal/geo"
	"rpeer/internal/ident"
	"rpeer/internal/netsim"
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
	Paths   []*traix.Path
	// Speed is the RTT-to-distance model of Step 3.
	Speed geo.SpeedModel
	// Seed drives alias-probing randomness.
	Seed int64
}

// Options toggles steps and knobs, mainly for the ablation benchmarks.
type Options struct {
	EnablePortCapacity bool // Step 1
	EnableRTTColo      bool // Steps 2+3
	EnableMultiIXP     bool // Step 4
	EnablePrivate      bool // Step 5
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

// DefaultOptions enables the full methodology.
func DefaultOptions() Options {
	return Options{
		EnablePortCapacity: true,
		EnableRTTColo:      true,
		EnableMultiIXP:     true,
		EnablePrivate:      true,
		AliasMode:          alias.ModePrecision,
	}
}

// Run executes the methodology over all memberships known to the
// merged dataset and returns a verdict for each.
//
// Run builds a fresh Context per call. Callers that run the pipeline
// more than once over the same inputs (the ablation suite, the
// experiment harness) should build one Context with NewContext and use
// its Run method instead: the reports are identical and the shared
// substrate amortises all input-dependent precomputation.
func Run(in Inputs, opt Options) (*Report, error) {
	c, err := NewContext(in)
	if err != nil {
		return nil, err
	}
	return c.Run(opt)
}

// RunWithOrder executes the enabled steps in an explicit order instead
// of the paper's 1,2+3,4,5 sequence — the step-ordering ablation
// (DESIGN.md section 6). Steps absent from order do not run.
func RunWithOrder(in Inputs, opt Options, order []Step) (*Report, error) {
	c, err := NewContext(in)
	if err != nil {
		return nil, err
	}
	return c.RunWithOrder(opt, order)
}

// RunStep evaluates one step of the methodology in isolation: the full
// pipeline provides the seed context (needed by the multi-IXP rules),
// and the requested step is then re-applied over a fresh, all-unknown
// domain so that its own reach and error rates are visible (the
// per-step rows of Table 4, whose coverages overlap across steps).
func RunStep(in Inputs, opt Options, s Step) (*Report, error) {
	c, err := NewContext(in)
	if err != nil {
		return nil, err
	}
	return c.RunStep(opt, s)
}

// newDomain instantiates the inference domain: one unknown-classified
// entry per interface record of the merged dataset. The entry list is
// precomputed on the shared context; the per-run cost is one Inference
// array and its index map. The backing array is kept on the pipeline,
// aligned with the context's domain entries, so the sharded steps
// index straight into it instead of snapshotting the report map.
func (p *pipeline) newDomain() *Report {
	rep, infs := p.ctx.domainReport(p.rtt, func(inf *Inference, _ float64, e domEntry) {
		if p.traceDerived != nil {
			inf.TraceRTT = p.traceDerived.Get(uint32(e.iface))
		}
	})
	p.domFor, p.domInfs, p.domEntries = rep, infs, p.ctx.domainEntries()
	return rep
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

	crossings []traix.Crossing

	// domFor / domInfs / domEntries bind the report produced by
	// newDomain to its backing inference array and the context's
	// aligned entry list.
	domFor     *Report
	domInfs    []Inference
	domEntries []domEntry
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

// growFacs widens the facility stamp columns to cover id: colo rows
// may name facilities beyond the geometry table, and stamping must
// never index out of range. Fresh segments are zeroed, so they can
// never collide with a live epoch.
func (s *scratch) growFacs(id netsim.FacilityID) {
	if n := int(id) + 1; n > len(s.facStamp) {
		s.facStamp = append(s.facStamp, make([]uint32, n-len(s.facStamp))...)
		s.facCount = append(s.facCount, make([]int32, n-len(s.facCount))...)
	}
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

// newPipeline binds a run view to the context. Every pipeline — cold
// package-level entry points included — runs over a Context; there is
// no separate context-free code path.
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
	p.crossings = c.crossings
}

// rttFor reports an interface's bound RTT minimum at the address edge
// (tests and diagnostics; the hot paths read the column by ID).
func (p *pipeline) rttFor(ip netip.Addr) (float64, bool) {
	id, ok := p.ctx.ids.Iface(ip)
	if !ok || int(id) >= len(p.rtt) {
		return 0, false
	}
	v := p.rtt[id]
	if math.IsNaN(v) {
		return 0, false
	}
	return v, true
}

// ---------------------------------------------------------------------------
// Sharded per-membership execution

// shardChunk is the number of entries a shard claims per grab: large
// enough to amortise the atomic increment, small enough to keep the
// tail balanced.
const shardChunk = 256

// parallelMinEntries is the domain size below which the fan-out
// overhead outweighs the shard parallelism.
const parallelMinEntries = 2 * shardChunk

// workers resolves the effective shard-pool size for n entries.
func (p *pipeline) workers(n int) int {
	w := p.opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if max := (n + shardChunk - 1) / shardChunk; w > max {
		w = max
	}
	return w
}

// forEachInference applies fn to every inference of the report,
// fanning the domain out across a shard pool when both the options and
// the domain size warrant it. fn must classify its entry from shared
// read-only state and write only through inf (plus its private
// scratch); because no entry reads another entry's verdict, the shard
// schedule cannot leak into the report and the output is bit-identical
// for every worker count — the merge is the writes themselves.
func (p *pipeline) forEachInference(rep *Report, fn func(*scratch, domEntry, *Inference)) {
	entries := p.domEntries
	n := len(entries)
	workers := p.workers(n)
	if workers <= 1 || n < parallelMinEntries {
		s := p.ctx.getScratch()
		for i := range entries {
			fn(s, entries[i], p.infAt(rep, i))
		}
		p.ctx.putScratch(s)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := p.ctx.getScratch()
			defer p.ctx.putScratch(s)
			for {
				start := int(next.Add(shardChunk)) - shardChunk
				if start >= n {
					return
				}
				end := start + shardChunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(s, entries[i], p.infAt(rep, i))
				}
			}
		}()
	}
	wg.Wait()
}

// infAt returns the inference backing entry i of the domain. Reports
// built by this pipeline's newDomain hit the aligned backing array;
// anything else (there is no such caller today) falls back to the
// report map.
func (p *pipeline) infAt(rep *Report, i int) *Inference {
	if rep == p.domFor {
		return &p.domInfs[i]
	}
	return rep.Inferences[p.domEntries[i].key]
}

// ---------------------------------------------------------------------------
// Step 1: port capacities (Section 5.2, Step 1)

// stepPortCapacity flags reseller customers: a member whose reported
// port capacity is below the IXP's minimum physical capacity can only
// be buying a virtual port through a reseller, hence is remote.
func (p *pipeline) stepPortCapacity(rep *Report) {
	p.forEachInference(rep, p.classifyPortCapacity)
}

func (p *pipeline) classifyPortCapacity(_ *scratch, e domEntry, inf *Inference) {
	if inf.Class != ClassUnknown {
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
		inf.Class = ClassRemote
		inf.Step = StepPortCapacity
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
func (p *pipeline) stepRTTColo(rep *Report) {
	p.forEachInference(rep, p.classifyRTTColo)
}

func (p *pipeline) classifyRTTColo(s *scratch, e domEntry, inf *Inference) {
	if inf.Class != ClassUnknown {
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
	inf.FeasibleIXPFacilities = len(feasIXP)

	asFacs, hasData := p.ctx.colo.Facilities(e.member)
	feasAS := p.asRing(e.member, asFacs, slot, dMin, dMax, s.ringB)
	s.ringB = feasAS[:0]

	switch {
	case len(feasIXP) == 0:
		// Rule 1(i): no IXP facility can explain the RTT.
		inf.Class = ClassRemote
		inf.Step = StepRTTColo
	case hasData && intersects(feasAS, feasIXP):
		// Rule 2: member colocated in a feasible IXP facility.
		inf.Class = ClassLocal
		inf.Step = StepRTTColo
	case hasData && len(feasAS) > 0:
		// Rule 1(ii): member sits in a feasible facility where the
		// IXP has no presence.
		inf.Class = ClassRemote
		inf.Step = StepRTTColo
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
