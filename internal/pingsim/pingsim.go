// Package pingsim simulates the paper's ping measurement plane
// (Sections 3.1 and 5.2, Step 2): vantage points inside IXPs (looking
// glasses on the peering LAN and RIPE-Atlas-style probes colocated
// with the IXP), repeated ping campaigns against member peering
// interfaces, reply-TTL modelling, and the TTL-match / TTL-switch
// filters plus minimum-RTT aggregation the methodology applies.
package pingsim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"sync"

	"rpeer/internal/geo"
	"rpeer/internal/netsim"
)

// VPKind distinguishes vantage point flavours.
type VPKind uint8

const (
	// KindLG is a looking glass directly attached to the IXP peering
	// LAN. LGs respond reliably but many round RTTs up to whole
	// milliseconds.
	KindLG VPKind = iota
	// KindAtlas is a RIPE-Atlas-style probe colocated with the IXP but
	// outside the peering LAN (one router hop away).
	KindAtlas
)

// String implements fmt.Stringer.
func (k VPKind) String() string {
	if k == KindLG {
		return "LG"
	}
	return "Atlas"
}

// VP is a measurement vantage point inside (or believed inside) an IXP.
type VP struct {
	ID   int
	IXP  netsim.IXPID
	Kind VPKind
	// Facility hosting the VP (-1 for management-LAN probes parked at
	// the IXP NOC, which may be outside any listed facility).
	Facility netsim.FacilityID
	Loc      geo.Point
	SrcIP    netip.Addr
	// RoundsUp marks LGs that report integer milliseconds (rounded up).
	RoundsUp bool

	// Hidden ground-truth attributes (not consulted by the inference):
	// mgmtLAN probes have inflated base RTT; dead probes never answer.
	mgmtLAN     bool
	mgmtExtraMs float64
	dead        bool
}

// CampaignConfig parametrises a ping campaign.
type CampaignConfig struct {
	// Samples per (VP, target) pair: the paper pings every two hours
	// for two days = 24 samples.
	Samples int
	// TargetResponseLG / TargetResponseAtlas are the probabilities that
	// a member interface answers pings from each VP kind at all
	// (Table 5: 95% vs 75%).
	TargetResponseLG    float64
	TargetResponseAtlas float64
	// PerSampleLoss is the per-ping loss probability for responsive
	// targets.
	PerSampleLoss float64
	// ExtraHopProb is the probability that replies arrive with an
	// unexpected extra TTL decrement (reply beyond the IXP subnet;
	// dropped by the TTL-match filter).
	ExtraHopProb float64
	// TTLSwitchProb is the probability that a target's reply TTL
	// flip-flops during the campaign (dropped by the TTL-switch
	// filter).
	TTLSwitchProb float64
	// DisableTTLFilters keeps the noisy pairs in the result instead of
	// flagging them (the TTL-filter ablation): RTT minimums then
	// include replies sourced beyond the IXP subnet.
	DisableTTLFilters bool
	// Seed drives all randomness of the campaign.
	Seed int64
}

// DefaultCampaign mirrors the paper's setup.
func DefaultCampaign() CampaignConfig {
	return CampaignConfig{
		Samples:             24,
		TargetResponseLG:    0.95,
		TargetResponseAtlas: 0.75,
		PerSampleLoss:       0.08,
		ExtraHopProb:        0.015,
		TTLSwitchProb:       0.01,
		Seed:                1,
	}
}

// DeriveVPs instantiates the vantage points the world offers: one LG
// per LG-operating IXP plus the IXP's Atlas probes. Roughly a quarter
// of Atlas probes sit in the management LAN (inflated RTT, to be
// caught by the route-server sanity filter) and some are dead.
func DeriveVPs(w *netsim.World, seed int64) []*VP {
	rng := rand.New(rand.NewSource(seed))
	var vps []*VP
	id := 0
	for _, ix := range w.IXPs {
		if ix.HasLG {
			f := ix.Facilities[0]
			vps = append(vps, &VP{
				ID: id, IXP: ix.ID, Kind: KindLG,
				Facility: f, Loc: w.Facility(f).Loc,
				SrcIP:    ix.RouteServer,
				RoundsUp: rng.Float64() < 0.5,
			})
			id++
		}
		for p := 0; p < ix.AtlasProbes; p++ {
			f := ix.Facilities[rng.Intn(len(ix.Facilities))]
			vp := &VP{
				ID: id, IXP: ix.ID, Kind: KindAtlas,
				Facility: f, Loc: w.Facility(f).Loc,
			}
			ip, err := mgmtAddr(w, ix, p)
			if err == nil {
				vp.SrcIP = ip
			}
			switch {
			case rng.Float64() < 0.20:
				vp.dead = true
			case rng.Float64() < 0.30:
				// Management-LAN probe: the NOC is elsewhere in town (or
				// in another town); every RTT is inflated.
				vp.mgmtLAN = true
				vp.mgmtExtraMs = 1 + rng.ExpFloat64()*6
				vp.Facility = -1
			}
			vps = append(vps, vp)
			id++
		}
	}
	return vps
}

func mgmtAddr(w *netsim.World, ix *netsim.IXP, n int) (netip.Addr, error) {
	ip := ix.MgmtLAN.Addr()
	for i := 0; i <= n; i++ {
		ip = ip.Next()
	}
	if !ix.MgmtLAN.Contains(ip) {
		return netip.Addr{}, fmt.Errorf("pingsim: mgmt LAN of %s exhausted", ix.Name)
	}
	return ip, nil
}

// Measurement is the filtered outcome for one (VP, interface) pair.
type Measurement struct {
	VP    *VP
	Iface netip.Addr
	ASN   netsim.ASN
	// RTTMinMs is the minimum RTT across surviving samples;
	// math.NaN() when no usable sample survived.
	RTTMinMs float64
	// Replies is the number of echo replies received (pre-filter).
	Replies int
	// FilteredTTL is true when the TTL-match or TTL-switch filter
	// discarded the pair.
	FilteredTTL bool
}

// Responsive reports whether at least one reply arrived.
func (m *Measurement) Responsive() bool { return m.Replies > 0 }

// Usable reports whether the measurement yields an RTTmin the
// inference may consume.
func (m *Measurement) Usable() bool {
	return m.Replies > 0 && !m.FilteredTTL && !math.IsNaN(m.RTTMinMs)
}

// Result is the outcome of a campaign.
type Result struct {
	VPs []*VP
	// ByVP maps VP id to its measurements (ordered by target address).
	ByVP map[int][]*Measurement
	// RouteServerRTT maps VP id to its RTTmin towards the IXP route
	// server (the VP-usability sanity check).
	RouteServerRTT map[int]float64
	// UsableVPs lists VPs that survive the route-server filter
	// (RTTmin < 1 ms) and answered at all.
	UsableVPs []*VP

	// overrides are per-interface replacement aggregates layered over
	// the campaign fold by WithOverrides (re-campaign refreshes).
	overrides map[netip.Addr]IfaceAgg

	// base is the campaign's aggregate layer: one row per usably
	// measured interface, ascending by address. A campaign run from
	// measurements folds ByVP into it on first use; a decoded one
	// carries it (world files persist the folded aggregates, not the raw
	// measurement set, which is regenerable and an order of magnitude
	// larger). It is shared across WithOverrides views and never
	// mutated.
	baseOnce sync.Once
	base     []AggRow

	// rows is the base layer with the overrides merged in, built on
	// first use; idx is the same rows keyed by address, built only when
	// a caller asks for the map (IfaceIndex).
	rowsOnce sync.Once
	rows     []AggRow
	idxOnce  sync.Once
	idx      map[netip.Addr]*IfaceAgg

	// byID is the roster by VP ID (see VP), shared by every
	// WithOverrides view of one campaign.
	vpOnce sync.Once
	byID   map[int]*VP
}

// AggRow is one interface's campaign aggregate in the address-ordered
// columnar view (see AggRows).
type AggRow struct {
	Iface netip.Addr
	Agg   *IfaceAgg
}

// AggRows returns the per-interface aggregates as rows sorted
// ascending by address — the form bulk consumers (core's context
// build) ingest without re-sorting map keys. Without overrides they
// are the base layer itself; the campaign folds it eagerly so the cost
// lands in the campaign stage, not in the consumer. The rows are
// shared and read-only.
func (r *Result) AggRows() []AggRow {
	base := r.baseRows()
	if len(r.overrides) == 0 {
		return base
	}
	r.rowsOnce.Do(func() {
		// Merge the address-ordered overlay into the base rows: an
		// override replaces its interface's row, and a NaN RTT removes
		// it.
		over := r.OverlayRows()
		rows := make([]AggRow, 0, len(base)+len(over))
		i := 0
		for _, o := range over {
			for ; i < len(base) && base[i].Iface.Less(o.Iface); i++ {
				rows = append(rows, base[i])
			}
			if i < len(base) && base[i].Iface == o.Iface {
				i++
			}
			if !math.IsNaN(o.Agg.RTTMinMs) {
				rows = append(rows, o)
			}
		}
		r.rows = append(rows, base[i:]...)
	})
	return r.rows
}

// baseRows returns the base aggregate layer, folding it from the
// measurements on first use: per interface, the minimum over usable
// VPs' usable measurements.
func (r *Result) baseRows() []AggRow {
	r.baseOnce.Do(func() {
		if r.base != nil {
			return // decoded, or inherited from the view's parent
		}
		idx := make(map[netip.Addr]*IfaceAgg)
		for _, vp := range r.UsableVPs {
			for _, m := range r.ByVP[vp.ID] {
				if !m.Usable() {
					continue
				}
				a := idx[m.Iface]
				if a == nil {
					a = &IfaceAgg{RTTMinMs: math.Inf(1)}
					idx[m.Iface] = a
				}
				if m.RTTMinMs < a.RTTMinMs {
					a.RTTMinMs = m.RTTMinMs
					a.BestVP = vp
					a.BestRoundsUp = vp.RoundsUp
				}
				if vp.RoundsUp {
					a.AnyRounding = true
				}
			}
		}
		rows := make([]AggRow, 0, len(idx))
		for ip, a := range idx {
			rows = append(rows, AggRow{Iface: ip, Agg: a})
		}
		slices.SortFunc(rows, func(a, b AggRow) int { return a.Iface.Compare(b.Iface) })
		r.base = rows
	})
	return r.base
}

// IfaceAgg is the campaign aggregate for one member interface across
// all usable VPs: the minimum RTT, the VP achieving it, and the
// rounding flags Step 3 consumes. It is built once per Result (see
// IfaceIndex) so per-interface queries stop re-scanning the full
// measurement set. The same shape is a delta's replacement aggregate
// (see WithOverrides) and the row every persisted format carries (see
// AppendAggCols).
type IfaceAgg struct {
	// RTTMinMs is the campaign minimum across usable VPs. In an
	// override, NaN removes the interface from the index (the refresh
	// found it unmeasurable).
	RTTMinMs float64
	// BestVP is the usable VP that measured RTTMinMs (ties resolve to
	// the earlier VP in UsableVPs order).
	BestVP *VP
	// BestRoundsUp reports whether BestVP rounds RTTs up.
	BestRoundsUp bool
	// AnyRounding reports whether any usable rounding VP measured the
	// interface at all.
	AnyRounding bool
}

// IfaceIndex returns the per-interface campaign aggregates keyed by
// address (the AggRows rows), building the map on first use. The
// returned map is shared and must be treated as read-only; concurrent
// callers are safe.
func (r *Result) IfaceIndex() map[netip.Addr]*IfaceAgg {
	r.idxOnce.Do(func() {
		rows := r.AggRows()
		idx := make(map[netip.Addr]*IfaceAgg, len(rows))
		for _, row := range rows {
			idx[row.Iface] = row.Agg
		}
		r.idx = idx
	})
	return r.idx
}

// WithOverrides returns a view of the campaign with the given
// per-interface aggregates replacing the folded ones. The receiver is
// not modified; the returned Result shares its measurement slices.
// Repeated applications stack, latest override winning per interface.
func (r *Result) WithOverrides(ov map[netip.Addr]IfaceAgg) *Result {
	merged := make(map[netip.Addr]IfaceAgg, len(r.overrides)+len(ov))
	for ip, o := range r.overrides {
		merged[ip] = o
	}
	for ip, o := range ov {
		merged[ip] = o
	}
	return &Result{
		VPs: r.VPs, ByVP: r.ByVP,
		RouteServerRTT: r.RouteServerRTT,
		UsableVPs:      r.UsableVPs,
		base:           r.baseRows(),
		byID:           r.vpIndex(),
		overrides:      merged,
	}
}

// OverlayRows returns the cumulative per-interface overrides layered
// over the campaign by WithOverrides, sorted by address — the mutable
// slice of a campaign's state, and therefore exactly what the engine's
// snapshot persists (the underlying measurements are regenerable from
// the base inputs; the overrides are not).
func (r *Result) OverlayRows() []AggRow {
	rows := make([]AggRow, 0, len(r.overrides))
	for ip, o := range r.overrides {
		rows = append(rows, AggRow{Iface: ip, Agg: &o})
	}
	slices.SortFunc(rows, func(a, b AggRow) int { return a.Iface.Compare(b.Iface) })
	return rows
}

// Overrides folds a re-campaign result into the override form
// WithOverrides consumes: every interface the refresh measured usably
// gets its refreshed aggregate (latest campaign wins). Interfaces the
// refresh could not measure are left untouched — a re-campaign
// narrows staleness, it does not revoke history.
func Overrides(refresh *Result) map[netip.Addr]IfaceAgg {
	idx := refresh.IfaceIndex()
	out := make(map[netip.Addr]IfaceAgg, len(idx))
	for ip, a := range idx {
		out[ip] = *a
	}
	return out
}

// VP resolves a roster vantage point by ID, the form persisted rows
// and /v1/apply bodies carry. ok is false for an unknown ID and on a
// nil Result. Safe for concurrent use.
func (r *Result) VP(id int) (*VP, bool) {
	if r == nil {
		return nil, false
	}
	vp, ok := r.vpIndex()[id]
	return vp, ok
}

func (r *Result) vpIndex() map[int]*VP {
	r.vpOnce.Do(func() {
		if r.byID != nil {
			return // inherited from the view's parent, or set by decode
		}
		r.byID = make(map[int]*VP, len(r.VPs))
		for _, vp := range r.VPs {
			r.byID[vp.ID] = vp
		}
	})
	return r.byID
}

// routeServerRTT simulates the VP's ping to the IXP route server.
func routeServerRTT(w *netsim.World, vp *VP, rng *rand.Rand) float64 {
	if vp.dead {
		return math.NaN()
	}
	ix := w.IXP(vp.IXP)
	rsLoc := w.Facility(ix.Facilities[0]).Loc
	base := 0.1 + 0.3*rng.Float64()
	if vp.Facility >= 0 && vp.Facility != ix.Facilities[0] {
		base = w.Latency().BaseRTT(vp.Loc, rsLoc, uint64(vp.ID)|1<<61, uint64(ix.ID)|1<<62)
	}
	if vp.mgmtLAN {
		base += vp.mgmtExtraMs
	}
	return base
}

// pingTarget runs the per-pair sample loop with reply-TTL modelling,
// filling the caller-owned measurement in place (campaign measurements
// live in per-VP slabs).
func pingTarget(m *Measurement, w *netsim.World, vp *VP, mem *netsim.Member, cfg CampaignConfig, rng *rand.Rand) {
	*m = Measurement{VP: vp, Iface: mem.Iface, ASN: mem.ASN, RTTMinMs: math.NaN()}
	if vp.dead {
		return
	}
	respond := cfg.TargetResponseLG
	if vp.Kind == KindAtlas {
		respond = cfg.TargetResponseAtlas
	}
	if rng.Float64() >= respond {
		return // interface filters this VP's pings entirely
	}

	r := w.Router(mem.Router)
	base := w.Latency().PointToRouterRTT(vp.Loc, uint64(vp.ID), r)
	if vp.mgmtLAN {
		base += vp.mgmtExtraMs
	}

	// Reply TTL model: replies sourced on the peering LAN arrive with
	// the initial TTL (LG case) or one less (Atlas probes sit one hop
	// off the LAN). A misbehaving target replies from deeper inside the
	// member network.
	initTTL := 255
	if rng.Float64() < 0.4 {
		initTTL = 64
	}
	expected := initTTL
	if vp.Kind == KindAtlas {
		expected = initTTL - 1
	}
	extraHops := 0
	if rng.Float64() < cfg.ExtraHopProb {
		extraHops = 1 + rng.Intn(3)
	}
	switches := rng.Float64() < cfg.TTLSwitchProb

	min := math.NaN()
	seenTTL := -1
	for s := 0; s < cfg.Samples; s++ {
		if rng.Float64() < cfg.PerSampleLoss {
			continue
		}
		m.Replies++
		ttl := expected - extraHops
		if switches && s%2 == 1 {
			ttl = expected - 1 - extraHops
		}
		if seenTTL >= 0 && ttl != seenTTL && !cfg.DisableTTLFilters {
			m.FilteredTTL = true // TTL-switch filter
		}
		seenTTL = ttl
		if ttl != expected {
			if !cfg.DisableTTLFilters {
				m.FilteredTTL = true // TTL-match filter
				continue
			}
			// Filters disabled: the reply comes from beyond the IXP
			// subnet and drags extra path latency into the minimum.
			rtt := w.Latency().Sample(rng, base) + float64(expected-ttl)*1.5
			if math.IsNaN(min) || rtt < min {
				min = rtt
			}
			continue
		}
		rtt := w.Latency().Sample(rng, base)
		if vp.Kind == KindLG && vp.RoundsUp {
			rtt = math.Ceil(rtt)
		}
		if math.IsNaN(min) || rtt < min {
			min = rtt
		}
	}
	m.RTTMinMs = min
}

// MinRTTByIface folds a campaign result into the per-interface RTTmin
// across all *usable* VPs of the interface's IXP, applying the paper's
// LG rounding correction downstream consumers need the raw value for:
// the minimum over VPs of each VP's RTTmin.
func (r *Result) MinRTTByIface() map[netip.Addr]float64 {
	idx := r.IfaceIndex()
	out := make(map[netip.Addr]float64, len(idx))
	for ip, a := range idx {
		out[ip] = a.RTTMinMs
	}
	return out
}
