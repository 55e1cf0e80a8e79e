package core

import (
	"cmp"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rpeer/internal/alias"
	"rpeer/internal/geo"
	"rpeer/internal/ident"
	"rpeer/internal/ip4"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/registry"
	"rpeer/internal/traix"
)

// Context is the reusable inference substrate: everything a pipeline
// run needs that depends only on the Inputs, not on the Options. Build
// it once with NewContext and share it across Run / RunStep / Baseline
// calls — the ablation suite and the experiment harness run the
// pipeline dozens of times over one input set, and rebuilding this
// state per run dominated their cost.
//
// The substrate is columnar: every entity the hot paths touch —
// interface, member AS, IXP, facility — is interned into a dense
// integer ID through internal/ident, and the per-entity state lives in
// ID-indexed slices and bitsets rather than hash maps. netip.Addr
// values and IXP-name strings survive only at the ingestion edge
// (building the context, absorbing a delta) and in the public Report.
//
// The context owns:
//
//   - the per-interface RTT / best-VP / rounding columns folded from
//     the ping campaign (one pass, shared by every run);
//   - the registry IP-to-AS map, the traIXroute detector, the
//     traceroute corpus with its live crossing plane (read per near
//     member in ID space), the per-member private-hop neighbour
//     index Step 5 reads, and the ID-indexed colocation /
//     port-capacity view;
//   - the lazily-built traceroute-RTT augmentation ("Beyond Pings"),
//     shared by every run with Options.UseTracerouteRTT;
//   - the geo fast path: facility coordinates converted once to unit
//     vectors (distance = dot product + arccos, see geo.Vec3) plus a
//     memoized per-(VP, facility-set) sorted-distance index keyed by
//     packed integer IDs, so each feasible-ring query is a binary
//     search instead of a Vincenty solve per facility;
//   - the alias probe plane (alias.Plane): the inputs' probe campaign
//     plus each interface ID's campaign row, indexed on the first
//     resolution and shared by both alias modes, plus each mode's
//     resolution memos (aliasMemo) — Step 4's multi-IXP routers and
//     Step 5's per-AS private-link components and per-membership
//     router neighbours. All are sound to keep because probing is a
//     pure function of seed, interface and probe time;
//   - a pool of per-shard scratch columns (epoch-stamped mark arrays)
//     so the per-entry classification of Steps 1-3 and 5 allocates
//     nothing in steady state.
//
// All methods are safe for concurrent use; the caches are guarded.
// Inputs must not be mutated after NewContext.
type Context struct {
	in  Inputs
	ids *ident.Table

	// ixps is the inference-domain roster (the IXPs of the merged
	// prefix plane), sorted by name. The interned IXP space is the
	// superset union with interface-record names; roster marks which
	// interned IXPs belong to the domain.
	ixps   []string
	roster ident.Bits

	// vps interns vantage-point pointers into dense slots; ring memo
	// keys and the bestVP column refer to slots, not pointers.
	vpMu   sync.Mutex
	vps    []*pingsim.VP
	vpSlot map[*pingsim.VP]int32
	// campaign is the ping campaign the context was built over (nil
	// without one); its VP index resolves roster IDs. Deltas refresh
	// RTTs, never the roster, so it is read without a lock while Apply
	// replaces in.Ping.
	campaign *pingsim.Result

	// Ping-only per-interface campaign columns, indexed by IfaceID:
	// NaN / -1 mark unmeasured interfaces.
	rtt    []float64
	bestVP []int32
	rounds ident.Bits

	ipmap  *registry.IPMap
	det    *traix.Detector
	corpus *traix.Corpus
	lans   *traix.LANSet
	// priv is the private-hop neighbours per member, Step 5's input:
	// static, built once from the corpus.
	priv traix.PrivNeighbours

	// colo is the ID-indexed colocation and port-capacity view the
	// per-entry classification reads.
	colo *registry.ColoIndex

	// dom is the current version of the inference domain, built lazily
	// under domMu (a sync.Once would survive deltas it must not
	// survive). Reports hold the version they were built over, so a
	// version is never written: Apply's membership patch builds the
	// next one. groups indexes the current version per member for Step
	// 4's propagation and evidence and the dirty-row lists. offRoster
	// holds the interface records at interned IXPs outside the roster
	// (their prefix record was lost to source noise), sorted by member:
	// not inference targets, but Step 4 still observes them. leaveMark
	// is patchDomain's scratch mark of departing interface IDs.
	domMu     sync.Mutex
	dom       *domView
	offRoster []domEntry
	groups    groupIndex
	leaveMark ident.Bits

	// Dirty-member tracking (see Apply and Run). gen counts applied
	// deltas; dirtyAt[m] (MemberID-indexed) is the generation that last
	// dirtied member m. Only Apply writes them. base is the last report
	// Run built, with the options it ran: the next Run with the same
	// options copies its clean members' rows and routers.
	// incrementalRuns counts the runs that did, fallbackRuns those that
	// had a base but dropped it.
	gen             uint64
	dirtyAt         []uint64
	baseMu          sync.Mutex
	base            *Report
	baseOpt         Options
	incrementalRuns atomic.Uint64
	fallbackRuns    atomic.Uint64

	// probes is the alias probe plane over the interface ID space
	// (slot = IfaceID): covered on the first resolution, extended by
	// the interfaces Apply interns. aliasMemos holds each alias mode's
	// resolution memos.
	probes     *alias.Plane
	aliasMu    sync.Mutex
	aliasMemos map[alias.Mode]*aliasMemo

	// Traceroute-RTT augmentation columns, built lazily under traceMu.
	// Apply only clears traceBuilt: the columns keep their capacity and
	// are rewritten in place on the next build (any delta can shift the
	// crossings or the RTT view they fold).
	traceMu      sync.Mutex
	traceBuilt   bool
	traceRTT     []float64
	traceBestVP  []int32
	traceRounds  ident.Bits
	traceDerived ident.Bits

	pvMu      sync.Mutex
	pseudoVPs map[string]*pingsim.VP

	// Geo fast path: facility unit vectors indexed by FacilityID.
	facVecs []geo.Vec3
	facOK   []bool

	// ringMu is an RWMutex because ring queries are read-dominated once
	// the per-(VP slot, facility-set) indexes are warm: parallel shards
	// take the read lock on the fast path and only contend on first
	// touch. Keys are packed integers (see ringKeyFor).
	ringMu sync.RWMutex
	rings  map[uint64][]ringEntry

	// scratchPool recycles the per-shard classification scratch across
	// runs (the epoch-stamped mark columns are sized to the ID spaces
	// and far too large to allocate per run).
	scratchPool sync.Pool
}

// domEntry is one membership of the inference domain by interned ID:
// its interface, its member AS and its IXP. A domView resolves the IDs
// to the address, AS number and name reports carry.
type domEntry struct {
	iface  ident.IfaceID
	member ident.MemberID
	ixp    ident.IXPID
}

// ringEntry is one facility at its precomputed distance from the key's
// VP location, sorted ascending by (distance, id).
type ringEntry struct {
	d  float64
	id netsim.FacilityID
}

// Ring-memo set kinds: an IXP's facility list or a member's colocation
// record, identified by its interned ID (the registry handle).
const (
	ringIXP uint8 = iota
	ringMember
)

// ringKeyFor packs one (VP slot, facility-set handle) pair into a
// 64-bit memo key: slot in the high bits, set ID and kind below.
func ringKeyFor(slot int32, kind uint8, set uint32) uint64 {
	return uint64(uint32(slot))<<34 | uint64(set)<<2 | uint64(kind)
}

// NewContext validates the inputs and builds the shared substrate.
func NewContext(in Inputs) (*Context, error) {
	if in.World == nil || in.Dataset == nil || in.Colo == nil {
		return nil, fmt.Errorf("core: World, Dataset and Colo inputs are required")
	}
	if n := in.World.NumIfaces(); in.Alias.Len() != n {
		return nil, fmt.Errorf("core: the alias probe campaign has %d rows, the world %d router interfaces", in.Alias.Len(), n)
	}
	return newContext(in), nil
}

// newContext builds the substrate without input validation (internal
// callers validate at their public entry points).
func newContext(in Inputs) *Context {
	c := &Context{
		in:         in,
		campaign:   in.Ping,
		vpSlot:     make(map[*pingsim.VP]int32),
		pseudoVPs:  make(map[string]*pingsim.VP),
		rings:      make(map[uint64][]ringEntry),
		probes:     alias.NewPlane(in.World, in.Alias),
		aliasMemos: make(map[alias.Mode]*aliasMemo),
	}

	// ---- interning phase (serial; everything after assumes a frozen
	// ID space except where noted) ----
	c.ixps = ixpNames(in)
	// The interface space ultimately holds the dataset's records plus
	// every world interface the traceroute compaction interns (private
	// cross-connect and near-side infrastructure addresses); presizing
	// for both keeps the intern map from rehash-growing through the
	// compaction phase (at 64x that is ~1M late insertions).
	c.ids = ident.NewTable(len(in.Dataset.IfaceASN)+in.World.NumIfaces()/8*9,
		len(in.World.ASNs)+16, len(in.World.Facilities))
	c.ids.SetIXPs(ixpUnion(in))
	for _, name := range c.ixps {
		if id, ok := c.ids.IXP(name); ok {
			c.roster.Set(uint32(id))
		}
	}
	// Members: the world roster (sorted), then any dataset-only ASNs
	// (none in practice — registry noise only reassigns within the
	// world — but interning is the wrong place to rely on that).
	for _, asn := range in.World.ASNs {
		c.ids.AddMember(asn)
	}
	extraASNs := make([]netsim.ASN, 0)
	for _, asn := range in.Dataset.IfaceASN {
		if _, ok := c.ids.Member(asn); !ok {
			extraASNs = append(extraASNs, asn)
		}
	}
	sort.Slice(extraASNs, func(i, j int) bool { return extraASNs[i] < extraASNs[j] })
	for _, asn := range extraASNs {
		c.ids.AddMember(asn)
	}
	// Interfaces: the merged dataset's records, ascending by address,
	// so IfaceID order matches address order over the frozen inputs.
	// Two passes: collect-and-sort (integer-keyed for the all-IPv4
	// common case), then fill the table in one sweep.
	for _, ip := range sortedDatasetIfaces(in.Dataset) {
		c.ids.AddIface(ip)
	}
	// Facilities: the world roster (already dense, interned for the
	// round-trip surface).
	for _, f := range in.World.Facilities {
		if f != nil {
			c.ids.AddFac(f.ID)
		}
	}
	c.growColumns()

	// The substrate indexes depend only on the (immutable) inputs and
	// not on each other, so they build concurrently: the ping-campaign
	// fold (the only goroutine that may intern — campaign targets
	// outside the registry dataset — which is why the other two touch
	// neither the table nor the columns), the traceroute plane (IP map
	// -> detector -> crossings / private hops, all in the address
	// domain), and the geo unit vectors. Each goroutine writes disjoint
	// context fields; wg.Wait is the publication barrier.
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		if in.Ping == nil {
			return
		}
		// The campaign pre-folds its per-interface aggregates into
		// address-ordered rows; the fold here is one linear sweep.
		for _, row := range in.Ping.AggRows() {
			a := row.Agg
			id := c.ids.AddIface(row.Iface)
			c.growColumns()
			c.rtt[id] = a.RTTMinMs
			c.bestVP[id] = c.vpSlotOf(a.BestVP)
			if a.BestRoundsUp {
				c.rounds.Set(uint32(id))
			}
		}
	}()
	go func() {
		defer wg.Done()
		c.ipmap = registry.BuildIPMap(in.World)
		c.det = traix.NewDetector(in.Dataset, c.ipmap)
		c.lans = traix.NewLANSet(traix.LANPrefixes(in.World))
		if in.Paths.Len() > 0 {
			// The corpus splits the paths into membership-independent
			// detections (settled here, once) and peering-LAN candidates
			// whose crossing verdicts form the live crossing plane,
			// settled now and kept current by every membership delta
			// (see Apply). Settling interns nothing; Compact below does.
			c.corpus = traix.NewCorpus(&in.Paths, c.lans, c.ipmap)
			c.corpus.Settle(c.det)
		}
	}()
	go func() {
		defer wg.Done()
		maxID := netsim.FacilityID(-1)
		for _, f := range in.World.Facilities {
			if f != nil && f.ID > maxID {
				maxID = f.ID
			}
		}
		c.facVecs = make([]geo.Vec3, maxID+1)
		c.facOK = make([]bool, maxID+1)
		for _, f := range in.World.Facilities {
			if f == nil || f.ID < 0 {
				continue
			}
			c.facVecs[f.ID] = geo.UnitVec(f.Loc)
			c.facOK[f.ID] = true
		}
	}()
	wg.Wait()

	// ---- back to serial: compact the detections into ID columns
	// (interning crossing participants and private-hop endpoints) and
	// project the colocation and port tables. ----
	if c.corpus != nil {
		c.corpus.Compact(c.ids)
		c.priv = c.corpus.CompactStatic(c.ids)
	}
	c.growColumns()
	c.colo = registry.NewColoIndex(in.Colo, in.Dataset, c.ids)

	return c
}

// sortedDatasetIfaces returns the dataset's interface addresses in
// ascending order. All-IPv4 datasets (every input this system
// generates) sort in the integer domain — one uint32 compare per
// element instead of a 24-byte netip compare under reflection.
func sortedDatasetIfaces(ds *registry.Dataset) []netip.Addr {
	u32 := make([]uint32, 0, len(ds.IfaceASN))
	for ip := range ds.IfaceASN {
		if !ip.Is4() {
			return sortedDatasetIfacesGeneric(ds)
		}
		u32 = append(u32, ip4.U32(ip))
	}
	slices.Sort(u32)
	out := make([]netip.Addr, len(u32))
	for i, u := range u32 {
		out[i] = ip4.Addr(u)
	}
	return out
}

// sortedDatasetIfacesGeneric is the mixed-family fallback.
func sortedDatasetIfacesGeneric(ds *registry.Dataset) []netip.Addr {
	out := make([]netip.Addr, 0, len(ds.IfaceASN))
	for ip := range ds.IfaceASN {
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ixpUnion lists every IXP name the dataset mentions — the prefix
// plane plus interface records whose prefix record was lost to source
// noise — sorted, so interned IXPID order equals name order.
func ixpUnion(in Inputs) []string {
	seen := make(map[string]bool)
	var names []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for _, name := range in.Dataset.PrefixIXP {
		add(name)
	}
	for _, name := range in.Dataset.IfaceIXP {
		add(name)
	}
	sort.Strings(names)
	return names
}

// growColumns pads the interface-indexed columns to the current ID
// space (NaN / -1 sentinel for unmeasured interfaces), extending in
// bulk rather than element-by-element.
func (c *Context) growColumns() {
	n := c.ids.NumIfaces()
	if old := len(c.rtt); old < n {
		if cap(c.rtt) < n {
			next := make([]float64, n, n+n/8)
			copy(next, c.rtt)
			c.rtt = next
		} else {
			c.rtt = c.rtt[:n]
		}
		nan := math.NaN()
		for i := old; i < n; i++ {
			c.rtt[i] = nan
		}
	}
	if old := len(c.bestVP); old < n {
		if cap(c.bestVP) < n {
			next := make([]int32, n, n+n/8)
			copy(next, c.bestVP)
			c.bestVP = next
		} else {
			c.bestVP = c.bestVP[:n]
		}
		for i := old; i < n; i++ {
			c.bestVP[i] = -1
		}
	}
}

// vpSlotOf interns a vantage-point pointer into a dense slot (-1 for
// nil). Slots feed the bestVP column and the ring memo keys.
func (c *Context) vpSlotOf(vp *pingsim.VP) int32 {
	if vp == nil {
		return -1
	}
	c.vpMu.Lock()
	defer c.vpMu.Unlock()
	if s, ok := c.vpSlot[vp]; ok {
		return s
	}
	s := int32(len(c.vps))
	c.vps = append(c.vps, vp)
	c.vpSlot[vp] = s
	return s
}

// vpAt returns the vantage point behind a slot.
func (c *Context) vpAt(slot int32) *pingsim.VP {
	c.vpMu.Lock()
	defer c.vpMu.Unlock()
	return c.vps[slot]
}

// setPing patches one interface's campaign columns (Apply overrides
// and the step tests inject measurements through here).
func (c *Context) setPing(ip netip.Addr, rtt float64, vp *pingsim.VP, rounds bool) {
	id := c.ids.AddIface(ip)
	c.growColumns()
	c.rtt[id] = rtt
	c.bestVP[id] = c.vpSlotOf(vp)
	if rounds {
		c.rounds.Set(uint32(id))
	} else {
		c.rounds.Clear(uint32(id))
	}
}

// clearPing removes one interface's measurement.
func (c *Context) clearPing(ip netip.Addr) {
	id, ok := c.ids.Iface(ip)
	if !ok || int(id) >= len(c.rtt) {
		return
	}
	c.rtt[id] = math.NaN()
	c.bestVP[id] = -1
	c.rounds.Clear(uint32(id))
}

// HasIXP reports whether the merged dataset's prefix plane knows the
// named IXP. The set is fixed at construction: membership deltas never
// touch the prefix plane.
func (c *Context) HasIXP(name string) bool {
	id, ok := c.ids.IXP(name)
	return ok && c.roster.Get(uint32(id))
}

// IXPs returns the inference-domain roster, the IXPs HasIXP knows,
// sorted by name. It is fixed at construction and shared: read-only.
func (c *Context) IXPs() []string { return c.ixps }

// VP resolves a vantage point of the campaign roster by ID, the form
// WAL records and /v1/apply bodies carry. ok is false for an unknown
// ID and for a context without a campaign. Safe for concurrent use.
func (c *Context) VP(id int) (*pingsim.VP, bool) { return c.campaign.VP(id) }

// BestVP returns the vantage point behind an interface's current
// campaign minimum, reflecting all applied deltas. Callers must not
// run concurrently with Apply (the rpi engine resolves under its
// apply lock).
func (c *Context) BestVP(ip netip.Addr) (*pingsim.VP, bool) {
	id, ok := c.ids.Iface(ip)
	if !ok || int(id) >= len(c.bestVP) {
		return nil, false
	}
	slot := c.bestVP[id]
	if slot < 0 {
		return nil, false
	}
	return c.vpAt(slot), true
}

// Inputs returns the inputs the context was built from.
func (c *Context) Inputs() Inputs { return c.in }

// Run executes opt.Steps, in order, over all memberships known to the
// merged dataset and returns a verdict for each, reusing the shared
// substrate: repeated runs amortise all input-dependent precomputation,
// and their reports are identical to a fresh context's. A step that is
// not part of the pipeline (StepNone, StepBaseline) fails the run.
//
// Run is incremental across deltas. The context keeps the last report
// it built as a base, and a run with the same options (Workers aside)
// re-classifies only the members the deltas applied since have dirtied
// (see Apply); every clean member's rows and multi-IXP routers are
// copied from the base. A run classifies every row when there is no
// such base, when the base's options differ, when the options ask for
// traceroute-derived RTTs (that view is rebuilt from the whole crossing
// plane by any delta), or when the dirty members hold more than
// 1/incrementalCutoff of the domain.
//
// A returned report is immutable (see Report): later runs copy its
// rows and share its routers, and Apply never writes the domain
// version it was built over.
func (c *Context) Run(opt Options) (*Report, error) {
	p := c.newPipeline(opt)
	base := c.baseFor(opt)
	rep := p.newDomain(base)
	for _, s := range opt.Steps {
		switch s {
		case StepPortCapacity:
			p.stepPortCapacity()
		case StepRTTColo:
			p.stepRTTColo()
		case StepMultiIXP:
			p.stepMultiIXP(rep, nil)
		case StepPrivate:
			p.stepPrivate()
		default:
			return nil, fmt.Errorf("core: Run does not support %v", s)
		}
	}
	switch {
	case p.base != nil:
		c.incrementalRuns.Add(1)
	case base != nil:
		c.fallbackRuns.Add(1)
	}
	if !opt.UseTracerouteRTT {
		c.baseMu.Lock()
		c.base, c.baseOpt = rep, opt
		c.baseMu.Unlock()
	}
	return rep, nil
}

// IncrementalRuns returns how many runs of this context took the
// incremental path, copying clean members from a base report, and how
// many had a base but classified every row because the members the
// deltas since dirtied hold more than the cutoff's share of the rows. It
// is a diagnostic for tests that must know which path a run took.
func (c *Context) IncrementalRuns() (incremental, fallback uint64) {
	return c.incrementalRuns.Load(), c.fallbackRuns.Load()
}

// baseFor returns the report a run with opt may copy clean members
// from, or nil.
func (c *Context) baseFor(opt Options) *Report {
	if opt.UseTracerouteRTT {
		return nil
	}
	c.baseMu.Lock()
	defer c.baseMu.Unlock()
	b := c.baseOpt
	if c.base == nil || !slices.Equal(b.Steps, opt.Steps) || b.DisableVminBound != opt.DisableVminBound ||
		b.AliasMode != opt.AliasMode {
		return nil
	}
	return c.base
}

// RunStep evaluates one step of the methodology in isolation: the full
// pipeline provides the seed context (needed by the multi-IXP rules),
// and the requested step is then re-applied over a fresh, all-unknown
// domain so that its own reach and error rates are visible (the
// per-step rows of Table 4, whose coverages overlap across steps).
//
// The multi-IXP rules seed each (member, IXP) group with classOf's
// rule over the full run's Step 1 and Step 2+3 verdicts: the class of
// the group's first such decided row, in ascending interface order.
func (c *Context) RunStep(opt Options, s Step) (*Report, error) {
	p := c.newPipeline(opt)
	overlay := p.newDomain(nil)
	switch s {
	case StepPortCapacity:
		p.stepPortCapacity()
	case StepRTTColo:
		p.stepRTTColo()
	case StepMultiIXP:
		base, err := c.Run(opt)
		if err != nil {
			return nil, err
		}
		// Runs and Apply never overlap, so the full run saw the
		// overlay's domain version and its rows align with p.groups.
		bv := base.v
		if bv.dom != p.out.dom {
			return nil, fmt.Errorf("core: the domain changed during RunStep")
		}
		seed := func(m ident.MemberID, x ident.IXPID) PeerClass {
			for _, di := range p.groups.of(m, x) {
				if st := bv.step[di]; (st == StepPortCapacity || st == StepRTTColo) && bv.class[di] != ClassUnknown {
					return bv.class[di]
				}
			}
			return ClassUnknown
		}
		p.stepMultiIXP(overlay, seed)
	case StepPrivate:
		p.stepPrivate()
	default:
		return nil, fmt.Errorf("core: RunStep does not support %v", s)
	}
	return overlay, nil
}

// Baseline runs the Castro et al. RTT-threshold inference over the
// shared substrate. Only memberships with a usable campaign minimum
// receive a verdict.
func (c *Context) Baseline(thresholdMs float64) (*Report, error) {
	dom, _ := c.domainGroups()
	v := newVerdicts(dom)
	for i, e := range dom.rows {
		rtt := c.rtt[e.iface]
		v.reset(i, rtt)
		switch {
		case math.IsNaN(rtt):
		case rtt > thresholdMs:
			v.decide(i, ClassRemote, StepBaseline)
		default:
			v.decide(i, ClassLocal, StepBaseline)
		}
	}
	return &Report{v: v, gen: c.gen}, nil
}

// memberships returns every interface record at an interned IXP as
// interned (iface, member, IXP) triples — the domain, indexed per
// member, plus the off-roster records, sorted by member — building the
// domain as needed. Step 4's evidence reads them instead of re-hashing
// the dataset.
func (c *Context) memberships() (groups *groupIndex, offRoster []domEntry) {
	c.domMu.Lock()
	defer c.domMu.Unlock()
	c.buildDomainLocked()
	return &c.groups, c.offRoster
}

// domainGroups returns the current version of the inference domain —
// one entry per interface record of the merged dataset, deduplicated,
// in deterministic order (IXPs sorted by name, interfaces ascending
// within each) — with its per-member index, building both as needed.
func (c *Context) domainGroups() (*domView, *groupIndex) {
	c.domMu.Lock()
	defer c.domMu.Unlock()
	c.buildDomainLocked()
	return c.dom, &c.groups
}

// groupIndex indexes the domain by member: member m's domain indexes
// are idx[off[m]:off[m+1]], ascending. The domain is ordered by (IXP,
// address), so each (member, IXP) group is one contiguous run of them,
// ascending by interface address — the order classOf's
// first-decided-entry rule depends on.
type groupIndex struct {
	off, idx []int32
	domain   []domEntry
}

// rowsOf returns member m's domain indexes, ascending.
func (g *groupIndex) rowsOf(m ident.MemberID) []int32 {
	if int(m)+1 >= len(g.off) {
		return nil
	}
	return g.idx[g.off[m]:g.off[m+1]]
}

// of returns the domain indexes of one (member, IXP) group.
func (g *groupIndex) of(m ident.MemberID, x ident.IXPID) []int32 {
	run := g.rowsOf(m)
	lo := sort.Search(len(run), func(i int) bool { return g.domain[run[i]].ixp >= x })
	hi := lo
	for hi < len(run) && g.domain[run[hi]].ixp == x {
		hi++
	}
	return run[lo:hi]
}

// buildDomainLocked builds the domain and its member grouping;
// the caller holds domMu. One pass over the dataset's interface
// records groups them per roster IXP (the old per-IXP MembersOf scans
// walked the whole record map once per exchange — O(records x IXPs));
// the per-IXP buckets then sort by address and emit in roster-name
// order, which is interned-IXPID order. An all-IPv4 bucket sorts as
// packed (address, bucket index) words, one integer compare per step
// instead of two intern-table lookups.
func (c *Context) buildDomainLocked() {
	if c.dom != nil {
		return
	}
	buckets := make([][]domEntry, c.ids.NumIXPs())
	c.offRoster = c.offRoster[:0]
	for ip, name := range c.in.Dataset.IfaceIXP {
		e, ok := c.newDomEntry(ip, name, c.in.Dataset.IfaceASN[ip])
		if !ok {
			continue
		}
		if !c.roster.Get(uint32(e.ixp)) {
			c.offRoster = append(c.offRoster, e)
			continue
		}
		buckets[e.ixp] = append(buckets[e.ixp], e)
	}
	slices.SortFunc(c.offRoster, func(x, y domEntry) int {
		return cmp.Or(cmp.Compare(x.member, y.member), cmp.Compare(x.iface, y.iface))
	})
	n := 0
	for _, b := range buckets {
		n += len(b)
	}
	rows := make([]domEntry, 0, n)
	var keys []uint64
	for _, b := range buckets {
		keys = keys[:0]
		for i, e := range b {
			a := c.ids.Addr(e.iface)
			if !a.Is4() {
				break
			}
			keys = append(keys, uint64(ip4.U32(a))<<32|uint64(i))
		}
		if len(keys) < len(b) {
			slices.SortFunc(b, c.compareIface)
			rows = append(rows, b...)
			continue
		}
		slices.Sort(keys)
		for _, k := range keys {
			rows = append(rows, b[uint32(k)])
		}
	}
	c.setDomainLocked(rows)
}

// setDomainLocked publishes rows as the current domain version and
// reindexes the member groups; the caller holds domMu.
func (c *Context) setDomainLocked(rows []domEntry) {
	c.dom = newDomView(rows, c.ids)
	c.rebuildGroupsLocked()
}

// compareIface orders two entries of one IXP by interface address.
func (c *Context) compareIface(x, y domEntry) int {
	return c.ids.Addr(x.iface).Compare(c.ids.Addr(y.iface))
}

// newDomEntry resolves one membership's interned IDs; ok is false for
// an IXP outside the interned space. Every entity is interned at
// construction or during Apply, so the lookups always hit;
// AddIface/AddMember keep the failure mode graceful if that invariant
// is ever broken by a caller mutating Inputs behind the context.
func (c *Context) newDomEntry(ip netip.Addr, ixpName string, asn netsim.ASN) (e domEntry, ok bool) {
	ixp, ok := c.ids.IXP(ixpName)
	if !ok {
		return domEntry{}, false
	}
	iface, ok := c.ids.Iface(ip)
	if !ok {
		iface = c.ids.AddIface(ip)
		c.growColumns()
	}
	member, ok := c.ids.Member(asn)
	if !ok {
		member = c.ids.AddMember(asn)
		c.colo.Grow(c.ids)
	}
	return domEntry{iface: iface, member: member, ixp: ixp}, true
}

// rebuildGroupsLocked reindexes the member groups from the current
// domain — a counting sort by member into the retained columns; the
// caller holds domMu.
func (c *Context) rebuildGroupsLocked() {
	g := &c.groups
	nm := c.ids.NumMembers()
	rows := c.dom.rows
	g.off = slices.Grow(g.off[:0], nm+1)[:nm+1]
	clear(g.off)
	g.idx = slices.Grow(g.idx[:0], len(rows))[:len(rows)]
	g.domain = rows
	for _, e := range rows {
		g.off[e.member+1]++
	}
	for m := 1; m <= nm; m++ {
		g.off[m] += g.off[m-1]
	}
	// Fill with off[m] as member m's cursor, then shift the advanced
	// cursors (now each member's end) back into start offsets.
	for i, e := range rows {
		g.idx[g.off[e.member]] = int32(i)
		g.off[e.member]++
	}
	copy(g.off[1:], g.off[:nm])
	g.off[0] = 0
}

// traceAugmented returns the RTT columns extended with traceroute-
// derived estimates ("Beyond Pings", Section 8), building them lazily.
// Apply clears the built flag, so the view always reflects the current
// crossings and campaign state; the columns are rewritten in place —
// a rebuild after a delta reuses the interned capacity instead of
// reallocating the whole view.
func (c *Context) traceAugmented() (rtt []float64, bestVP []int32, rounds, derived *ident.Bits) {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	if !c.traceBuilt {
		n := len(c.rtt)
		if cap(c.traceRTT) < n {
			c.traceRTT = make([]float64, n)
		}
		c.traceRTT = c.traceRTT[:n]
		copy(c.traceRTT, c.rtt)
		if cap(c.traceBestVP) < n {
			c.traceBestVP = make([]int32, n)
		}
		c.traceBestVP = c.traceBestVP[:n]
		copy(c.traceBestVP, c.bestVP)
		c.traceRounds.CopyFrom(&c.rounds)
		c.traceDerived.Reset()
		var crossings []traix.Crossing
		if c.corpus != nil {
			crossings = c.corpus.Crossings()
		}
		for _, e := range DeriveTracerouteRTT(&c.in.Paths, crossings) {
			id, ok := c.ids.Iface(e.Iface)
			if !ok || int(id) >= n {
				continue
			}
			if !math.IsNaN(c.traceRTT[id]) {
				continue // ping data always wins
			}
			vp := c.pseudoVP(e.IXP)
			if vp == nil {
				continue
			}
			c.traceRTT[id] = e.RTTMs
			c.traceBestVP[id] = c.vpSlotOf(vp)
			c.traceRounds.Clear(uint32(id))
			c.traceDerived.Set(uint32(id))
		}
		c.traceBuilt = true
	}
	return c.traceRTT, c.traceBestVP, &c.traceRounds, &c.traceDerived
}

// pseudoVP returns (allocating lazily) a synthetic vantage point at the
// IXP's primary recorded facility, used to anchor the Step 3 geometry
// for traceroute-derived RTTs.
func (c *Context) pseudoVP(ixp string) *pingsim.VP {
	c.pvMu.Lock()
	defer c.pvMu.Unlock()
	if vp, ok := c.pseudoVPs[ixp]; ok {
		return vp
	}
	facs := c.in.Colo.IXPFacilities[ixp]
	if len(facs) == 0 {
		c.pseudoVPs[ixp] = nil
		return nil
	}
	fac := c.in.World.Facility(facs[0])
	if fac == nil {
		c.pseudoVPs[ixp] = nil
		return nil
	}
	vp := &pingsim.VP{
		ID: -1 - len(c.pseudoVPs), IXP: -1, Kind: pingsim.KindLG,
		Facility: fac.ID, Loc: fac.Loc,
	}
	c.pseudoVPs[ixp] = vp
	return vp
}

// facVec returns the precomputed unit vector of a facility.
func (c *Context) facVec(id netsim.FacilityID) (geo.Vec3, bool) {
	if id < 0 || int(id) >= len(c.facVecs) || !c.facOK[id] {
		return geo.Vec3{}, false
	}
	return c.facVecs[id], true
}

// ringEntries returns the sorted facility-distance index for one
// (VP slot, facility set) pair, building and memoizing it on first
// use. facs is resolved by the caller from the key's registry handle.
func (c *Context) ringEntries(key uint64, slot int32, facs []netsim.FacilityID) []ringEntry {
	c.ringMu.RLock()
	if e, ok := c.rings[key]; ok {
		c.ringMu.RUnlock()
		return e
	}
	c.ringMu.RUnlock()

	v := geo.UnitVec(c.vpAt(slot).Loc)
	entries := make([]ringEntry, 0, len(facs))
	for _, f := range facs {
		vec, ok := c.facVec(f)
		if !ok {
			continue
		}
		entries = append(entries, ringEntry{d: geo.ArcKm(v, vec), id: f})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].d != entries[j].d {
			return entries[i].d < entries[j].d
		}
		return entries[i].id < entries[j].id
	})
	c.ringMu.Lock()
	c.rings[key] = entries
	c.ringMu.Unlock()
	return entries
}

// ringQuery appends to buf the facilities of the keyed set whose
// distance from the slot's VP location falls inside [dMin, dMax], in
// ascending distance order, and returns the extended buffer.
func (c *Context) ringQuery(slot int32, kind uint8, set uint32, facs []netsim.FacilityID, dMin, dMax float64, buf []netsim.FacilityID) []netsim.FacilityID {
	entries := c.ringEntries(ringKeyFor(slot, kind, set), slot, facs)
	i := sort.Search(len(entries), func(i int) bool { return entries[i].d >= dMin })
	for ; i < len(entries) && entries[i].d <= dMax; i++ {
		buf = append(buf, entries[i].id)
	}
	return buf
}

// facDist computes min and max great-circle distance between two
// facility sets using the precomputed unit vectors; ok is false when
// either set contributes no locatable facility.
func (c *Context) facDist(a, b []netsim.FacilityID) (minKm, maxKm float64, ok bool) {
	minKm = math.Inf(1)
	for _, fa := range a {
		va, okA := c.facVec(fa)
		if !okA {
			continue
		}
		for _, fb := range b {
			vb, okB := c.facVec(fb)
			if !okB {
				continue
			}
			d := geo.ArcKm(va, vb)
			if d < minKm {
				minKm = d
			}
			if d > maxKm {
				maxKm = d
			}
			ok = true
		}
	}
	return minKm, maxKm, ok
}
