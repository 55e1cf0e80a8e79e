// Package netsim generates and hosts the synthetic Internet ecosystem
// on which the remote peering inference methodology runs: cities,
// colocation facilities, IXPs (including wide-area IXPs and IXP
// federations), member ASes, routers, peering-LAN interfaces, resellers
// and private interconnections, together with a hidden ground truth of
// which IXP memberships are local and which are remote.
//
// The real study measured the live Internet; this package substitutes a
// seeded, reproducible world that exposes the same observable artefacts
// (registry records, ping RTTs, traceroute paths, IP-ID side channels)
// with the noise and incompleteness rates reported in the paper, so the
// inference pipeline faces the same ambiguity structure.
package netsim

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"rpeer/internal/geo"
	"rpeer/internal/ip4"
)

// ASN is an autonomous system number.
type ASN uint32

// String implements fmt.Stringer in the conventional "AS64500" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// FacilityID identifies a colocation facility.
type FacilityID int32

// IXPID identifies an Internet eXchange Point.
type IXPID int32

// RouterID identifies a physical router.
type RouterID int32

// ConnKind describes how an IXP member reaches the IXP switching
// fabric. Everything except ConnLocal is remote peering under the
// paper's Definition 1.
type ConnKind uint8

const (
	// ConnLocal: the member's router is patched directly to the IXP
	// switch in a facility where the IXP has presence.
	ConnLocal ConnKind = iota
	// ConnReseller: the member buys a (often fractional) virtual port
	// through a port reseller's network.
	ConnReseller
	// ConnLongCable: the member buys a physical port but back-hauls it
	// over an owned or leased layer-2 circuit from a distant location.
	ConnLongCable
	// ConnFederation: the member is local to a sibling IXP of the same
	// federation and reaches this IXP over the inter-IXP interconnect.
	ConnFederation
)

// Remote reports whether the connection kind constitutes remote peering
// under Definition 1 of the paper.
func (k ConnKind) Remote() bool { return k != ConnLocal }

// String implements fmt.Stringer.
func (k ConnKind) String() string {
	switch k {
	case ConnLocal:
		return "local"
	case ConnReseller:
		return "reseller"
	case ConnLongCable:
		return "long-cable"
	case ConnFederation:
		return "federation"
	default:
		return fmt.Sprintf("ConnKind(%d)", uint8(k))
	}
}

// City is a metropolitan area that can host facilities.
type City struct {
	Name    string
	Country string // ISO 3166-1 alpha-2
	Loc     geo.Point
	// Weight steers how much infrastructure the generator places in the
	// city (facilities, AS headquarters, IXP sizes).
	Weight float64
}

// Facility is a colocation data centre.
type Facility struct {
	ID      FacilityID
	Name    string
	City    string
	Country string
	Loc     geo.Point
}

// IXP is an Internet exchange point: a layer-2 switching fabric
// deployed in one or more facilities.
type IXP struct {
	ID   IXPID
	Name string
	// PeeringLAN is the public subnet from which member interfaces are
	// assigned.
	PeeringLAN netip.Prefix
	// MgmtLAN is the IXP's management subnet; some Atlas-like probes
	// land here and must be filtered out by the measurement pipeline.
	MgmtLAN netip.Prefix
	// RouteServer is the IXP route server address on the peering LAN;
	// looking glasses ping from/next to it and VP-sanity filters ping
	// to it.
	RouteServer netip.Addr
	// Facilities where the IXP has deployed switches.
	Facilities []FacilityID
	// MinPortMbps is the minimum *physical* port capacity sold by the
	// IXP itself (Cmin in Step 1). Fractional capacities below this are
	// only available through resellers.
	MinPortMbps int
	// PortOptionsMbps are the physical port capacities on the IXP's
	// price list.
	PortOptionsMbps []int
	// AllowsResellers indicates whether the IXP runs a reseller
	// program.
	AllowsResellers bool
	// FederationID groups sibling IXPs operated by one organisation
	// (0 = none). Members local to one sibling can peer remotely at the
	// others.
	FederationID int
	// HasLG indicates a public looking glass inside the peering LAN.
	HasLG bool
	// AtlasProbes is the number of RIPE-Atlas-like probes colocated
	// with the IXP (some usable, some in the management LAN).
	AtlasProbes int
	// WideArea is true when the switching fabric spans facilities more
	// than one metro area apart (Section 4.2).
	WideArea bool
}

// AS is an autonomous system.
type AS struct {
	ASN      ASN
	Name     string
	Country  string
	HomeCity string
	HomeLoc  geo.Point
	// Facilities lists ground-truth colocation presence.
	Facilities []FacilityID
	// TrafficMbps is the self-reported aggregate traffic level
	// (PeeringDB-style), used by the Fig 11b analysis.
	TrafficMbps float64
	// Tier is 1 (transit-free), 2 (regional) or 3 (stub/edge).
	Tier int
	// Providers are the AS's transit providers (customer-to-provider
	// edges of the relationship graph).
	Providers []ASN
	// IsReseller marks port-reseller organisations (IX-Reach/RETN-like).
	IsReseller bool
	// ResellerPOPs lists the facilities where a reseller offers IXP
	// access.
	ResellerPOPs []FacilityID
}

// Member is one (AS, IXP) membership: the ground-truth record of how
// the AS reaches the IXP. Kind is hidden from the inference pipeline
// and used only for validation.
type Member struct {
	ASN      ASN
	IXP      IXPID
	Iface    netip.Addr // address on the IXP peering LAN
	Router   RouterID
	PortMbps int
	Kind     ConnKind
	// Reseller is the reseller AS used, when Kind == ConnReseller.
	Reseller ASN
	// ViaFed is the sibling IXP through which a federation member is
	// reached, when Kind == ConnFederation.
	ViaFed IXPID
}

// Remote reports the ground-truth remoteness of the membership.
func (m *Member) Remote() bool { return m.Kind.Remote() }

// Router is a physical router. All its interfaces share one IP-ID
// counter, which is what MIDAR-style alias resolution exploits.
type Router struct {
	ID    RouterID
	Owner ASN
	// Facility is the hosting facility, or -1 when the router sits at
	// the owner's off-net location (office, national POP).
	Facility FacilityID
	Loc      geo.Point
	// Ifaces are the router's interface addresses as IPv4 words (the
	// whole simulated infrastructure is IPv4). After generation or
	// loading they are a capped sub-slice of the world's one interface
	// slab: read-only.
	Ifaces []uint32
	// IXPs lists exchanges this router has layer-3 presence on
	// (multi-IXP routers have more than one).
	IXPs []IXPID
	// IPIDInit and IPIDRate parametrise the router's shared IP-ID
	// counter: id(t) = IPIDInit + IPIDRate*t (mod 65536).
	IPIDInit uint32
	IPIDRate float64
}

// maxIPIDRate bounds IPIDRate (IDs per second): a counter advancing
// faster wraps more than once a second, which no generated router does
// (they draw 40-500).
const maxIPIDRate = 65536

// PrivateLink is a private (non-IXP) interconnection between two
// routers, almost always inside a single facility.
type PrivateLink struct {
	A, B RouterID
	// AIface and BIface are the two sides' interface addresses, as IPv4
	// words (see Router.Ifaces).
	AIface, BIface uint32
	// Facility where the cross-connect lives; -1 for the rare tethered
	// interconnects spanning facilities.
	Facility FacilityID
}

// World is the fully generated ecosystem plus lookup indices.
type World struct {
	Cfg    Config
	Cities []City

	Facilities []*Facility
	IXPs       []*IXP
	ASes       map[ASN]*AS
	ASNs       []ASN // sorted, for deterministic iteration
	Routers    map[RouterID]*Router
	RouterIDs  []RouterID // sorted
	Members    []*Member
	Private    []PrivateLink
	Resellers  []ASN

	// ifaceRouter maps every router interface to its router: sorted
	// address<<32 | router words, one binary search per lookup. An
	// interface's owner is its router's.
	ifaceRouter []uint64

	memberByIXP map[IXPID][]*Member
	asMembers   map[ASN][]*Member
	asPrefixes  map[ASN][]netip.Prefix
	facByID     map[FacilityID]*Facility
	// routerByID is the dense fast path behind Router (router IDs are
	// assigned sequentially by the generator and loader).
	routerByID []*Router

	lat *Latency
}

// Facility returns the facility with the given id, or nil.
func (w *World) Facility(id FacilityID) *Facility { return w.facByID[id] }

// IXP returns the IXP with the given id, or nil.
func (w *World) IXP(id IXPID) *IXP {
	if int(id) < 0 || int(id) >= len(w.IXPs) {
		return nil
	}
	return w.IXPs[id]
}

// AS returns the AS with the given number, or nil.
func (w *World) AS(asn ASN) *AS { return w.ASes[asn] }

// Router returns the router with the given id, or nil.
func (w *World) Router(id RouterID) *Router {
	if id >= 0 && int(id) < len(w.routerByID) {
		return w.routerByID[id]
	}
	return w.Routers[id]
}

// MembersOf returns the ground-truth membership list of an IXP.
func (w *World) MembersOf(id IXPID) []*Member { return w.memberByIXP[id] }

// NumIfaces returns the total number of router interface addresses in
// the world — the capacity bound consumers interning world addresses
// (peering-LAN and infrastructure alike) should presize for.
func (w *World) NumIfaces() int { return len(w.ifaceRouter) }

// MembershipsOf returns all IXP memberships of an AS.
func (w *World) MembershipsOf(asn ASN) []*Member { return w.asMembers[asn] }

// RouterOf returns the router an interface address belongs to and
// whether the address is known.
func (w *World) RouterOf(ip netip.Addr) (RouterID, bool) {
	if !ip.Is4() {
		return 0, false
	}
	u := uint64(ip4.U32(ip))
	i, _ := slices.BinarySearch(w.ifaceRouter, u<<32)
	if i < len(w.ifaceRouter) && w.ifaceRouter[i]>>32 == u {
		return RouterID(int32(uint32(w.ifaceRouter[i]))), true
	}
	return 0, false
}

// ASPrefixes returns the infrastructure prefixes originated by an AS.
func (w *World) ASPrefixes(asn ASN) []netip.Prefix { return w.asPrefixes[asn] }

// FacilityLocs returns the coordinates of the IXP's facilities.
func (w *World) FacilityLocs(id IXPID) []geo.Point {
	ix := w.IXP(id)
	if ix == nil {
		return nil
	}
	pts := make([]geo.Point, 0, len(ix.Facilities))
	for _, f := range ix.Facilities {
		if fac := w.Facility(f); fac != nil {
			pts = append(pts, fac.Loc)
		}
	}
	return pts
}

// Latency returns the world's latency oracle.
func (w *World) Latency() *Latency { return w.lat }

// LargestIXPs returns the n largest IXPs by ground-truth member count,
// in decreasing size order.
func (w *World) LargestIXPs(n int) []*IXP {
	ixps := make([]*IXP, len(w.IXPs))
	copy(ixps, w.IXPs)
	sort.SliceStable(ixps, func(i, j int) bool {
		return len(w.MembersOf(ixps[i].ID)) > len(w.MembersOf(ixps[j].ID))
	})
	if n > len(ixps) {
		n = len(ixps)
	}
	return ixps[:n]
}

// CommonFacilities returns the facilities shared by the two id sets.
func CommonFacilities(a, b []FacilityID) []FacilityID {
	set := make(map[FacilityID]bool, len(a))
	for _, f := range a {
		set[f] = true
	}
	var out []FacilityID
	for _, f := range b {
		if set[f] {
			out = append(out, f)
			set[f] = false // dedupe
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// buildIndices populates the lookup indices after generation or
// loading. The routers' interfaces move into one slab, in router ID
// order, and the interface-to-router column is built from it.
func (w *World) buildIndices() {
	w.RouterIDs = w.RouterIDs[:0]
	nIfaces := 0
	for id, r := range w.Routers {
		w.RouterIDs = append(w.RouterIDs, id)
		nIfaces += len(r.Ifaces)
	}
	slices.Sort(w.RouterIDs)
	maxRtr := RouterID(-1)
	if n := len(w.RouterIDs); n > 0 {
		maxRtr = w.RouterIDs[n-1]
	}
	w.routerByID = make([]*Router, maxRtr+1)
	slab := make([]uint32, 0, nIfaces)
	w.ifaceRouter = make([]uint64, 0, nIfaces)
	for _, id := range w.RouterIDs {
		r := w.Routers[id]
		w.routerByID[id] = r
		lo := len(slab)
		slab = append(slab, r.Ifaces...)
		r.Ifaces = slab[lo:len(slab):len(slab)]
		for _, ip := range r.Ifaces {
			w.ifaceRouter = append(w.ifaceRouter, uint64(ip)<<32|uint64(uint32(id)))
		}
	}
	slices.Sort(w.ifaceRouter)
	w.memberByIXP = make(map[IXPID][]*Member, len(w.IXPs))
	w.asMembers = make(map[ASN][]*Member, len(w.ASes))
	w.facByID = make(map[FacilityID]*Facility, len(w.Facilities))
	for _, f := range w.Facilities {
		w.facByID[f.ID] = f
	}
	for _, m := range w.Members {
		w.memberByIXP[m.IXP] = append(w.memberByIXP[m.IXP], m)
		w.asMembers[m.ASN] = append(w.asMembers[m.ASN], m)
	}
	w.ASNs = w.ASNs[:0]
	for asn := range w.ASes {
		w.ASNs = append(w.ASNs, asn)
	}
	sort.Slice(w.ASNs, func(i, j int) bool { return w.ASNs[i] < w.ASNs[j] })
}
