package netsim

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"rpeer/internal/geo"
)

var defaultWorld *World

func world(t testing.TB) *World {
	t.Helper()
	if defaultWorld == nil {
		w, err := Generate(DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defaultWorld = w
	}
	return defaultWorld
}

func TestGenerateInvalidConfig(t *testing.T) {
	if _, err := Generate(Config{}, 0); err == nil {
		t.Error("want error for zero config")
	}
}

func TestGenerateBasicShape(t *testing.T) {
	w := world(t)
	if len(w.IXPs) != w.Cfg.NIXPs {
		t.Errorf("IXPs = %d, want %d", len(w.IXPs), w.Cfg.NIXPs)
	}
	if got := len(w.ASes); got < w.Cfg.NASes {
		t.Errorf("ASes = %d, want >= %d (plus resellers)", got, w.Cfg.NASes)
	}
	if len(w.Members) < 3000 {
		t.Errorf("memberships = %d, want a few thousand", len(w.Members))
	}
	if len(w.Facilities) < 60 {
		t.Errorf("facilities = %d, want >= 60", len(w.Facilities))
	}
	if len(w.Private) < 500 {
		t.Errorf("private links = %d, want >= 500", len(w.Private))
	}
}

func TestMembershipConsistency(t *testing.T) {
	w := world(t)
	for _, m := range w.Members {
		ix := w.IXP(m.IXP)
		if ix == nil {
			t.Fatalf("member %d of unknown IXP %d", m.ASN, m.IXP)
		}
		if !ix.PeeringLAN.Contains(m.Iface) {
			t.Errorf("member AS%d iface %v outside %s LAN %v", m.ASN, m.Iface, ix.Name, ix.PeeringLAN)
		}
		r := w.Router(m.Router)
		if r == nil {
			t.Fatalf("member AS%d references unknown router", m.ASN)
		}
		if r.Owner != m.ASN {
			t.Errorf("member AS%d rides router owned by AS%d", m.ASN, r.Owner)
		}
		if rid, ok := w.RouterOf(m.Iface); !ok || rid != m.Router {
			t.Errorf("iface router index broken for %v", m.Iface)
		}
		if m.Kind == ConnReseller && m.Reseller == 0 {
			t.Error("reseller membership without reseller ASN")
		}
	}
}

func TestGroundTruthLocalMeansColocated(t *testing.T) {
	w := world(t)
	for _, m := range w.Members {
		if m.Kind != ConnLocal {
			continue
		}
		r := w.Router(m.Router)
		ix := w.IXP(m.IXP)
		if r.Facility < 0 {
			t.Fatalf("local member AS%d at %s has off-facility router", m.ASN, ix.Name)
		}
		if !containsFac(ix.Facilities, r.Facility) {
			t.Errorf("local member AS%d router at facility %d, not an %s facility", m.ASN, r.Facility, ix.Name)
		}
		as := w.AS(m.ASN)
		if len(CommonFacilities(as.Facilities, ix.Facilities)) == 0 {
			t.Errorf("local member AS%d shares no facility with %s", m.ASN, ix.Name)
		}
	}
}

func TestPortCapacityRules(t *testing.T) {
	w := world(t)
	subMinRemote := 0
	remote := 0
	for _, m := range w.Members {
		ix := w.IXP(m.IXP)
		if m.Kind == ConnLocal {
			if m.PortMbps < ix.MinPortMbps {
				t.Errorf("local member AS%d of %s on fractional port %d Mbps", m.ASN, ix.Name, m.PortMbps)
			}
		} else {
			remote++
			if m.PortMbps < ix.MinPortMbps {
				subMinRemote++
				if m.Kind != ConnReseller {
					t.Errorf("sub-Cmin port on non-reseller membership (%s)", m.Kind)
				}
			}
			if m.PortMbps >= 100000 {
				t.Errorf("remote member AS%d holds a 100GE port", m.ASN)
			}
		}
	}
	frac := float64(subMinRemote) / float64(remote)
	// Paper Fig 4: 27% of remote peers on fractional ports. Reseller
	// customers are ~72% of remotes and ~38% of them buy fractional.
	if frac < 0.15 || frac > 0.42 {
		t.Errorf("fractional-port share of remotes = %.2f, want ~0.27±0.15", frac)
	}
}

func TestRemoteShareTargets(t *testing.T) {
	w := world(t)
	totRemote, tot := 0, 0
	ixps := w.LargestIXPs(30)
	below10 := 0
	for _, ix := range ixps {
		r, n := 0, 0
		for _, m := range w.MembersOf(ix.ID) {
			n++
			if m.Remote() {
				r++
			}
		}
		tot += n
		totRemote += r
		if float64(r) < 0.10*float64(n) {
			below10++
		}
	}
	overall := float64(totRemote) / float64(tot)
	if overall < 0.20 || overall > 0.40 {
		t.Errorf("overall remote share = %.2f, want ~0.28", overall)
	}
	// Paper: >90% of IXPs have >10% remote members.
	if below10 > 4 {
		t.Errorf("%d of 30 IXPs below 10%% remote share, want <= 4", below10)
	}
	// The two flagships approach 40%.
	for _, ix := range ixps[:2] {
		r, n := 0, 0
		for _, m := range w.MembersOf(ix.ID) {
			n++
			if m.Remote() {
				r++
			}
		}
		share := float64(r) / float64(n)
		if share < 0.30 || share > 0.52 {
			t.Errorf("flagship %s remote share = %.2f, want ~0.40", ix.Name, share)
		}
	}
}

func TestWideAreaIXPs(t *testing.T) {
	w := world(t)
	nWide := 0
	for _, ix := range w.IXPs {
		if !ix.WideArea {
			continue
		}
		nWide++
		locs := w.FacilityLocs(ix.ID)
		d, _, _ := geo.MaxPairwiseKm(locs)
		if d <= geo.MetroSeparationKm {
			t.Errorf("wide-area IXP %s has max facility spread %.0f km", ix.Name, d)
		}
	}
	if nWide != w.Cfg.WideAreaIXPs {
		t.Errorf("wide-area IXPs = %d, want %d", nWide, w.Cfg.WideAreaIXPs)
	}
}

func TestFederationMembers(t *testing.T) {
	w := world(t)
	found := 0
	for _, m := range w.Members {
		if m.Kind != ConnFederation {
			continue
		}
		found++
		sib := w.IXP(m.ViaFed)
		if sib == nil {
			t.Fatalf("federation member AS%d without sibling IXP", m.ASN)
		}
		if sib.FederationID == 0 || sib.FederationID != w.IXP(m.IXP).FederationID {
			t.Errorf("federation member AS%d: sibling %s not in same federation", m.ASN, sib.Name)
		}
		r := w.Router(m.Router)
		if r.Facility < 0 || !containsFac(sib.Facilities, r.Facility) {
			t.Errorf("federation member AS%d router not at sibling facility", m.ASN)
		}
	}
	if found == 0 {
		t.Error("no federation memberships generated")
	}
}

func TestMultiIXPRoutersExist(t *testing.T) {
	w := world(t)
	multi := 0
	for _, id := range w.RouterIDs {
		if len(w.Routers[id].IXPs) > 1 {
			multi++
		}
	}
	if multi < 50 {
		t.Errorf("multi-IXP routers = %d, want >= 50", multi)
	}
}

func TestLocalRTTBelow1msMostly(t *testing.T) {
	w := world(t)
	lat := w.Latency()
	// For every IXP with an LG, the RTT from the route-server facility
	// to local members must be sub-millisecond in ~99% of cases when
	// they share the facility metro.
	ix := w.LargestIXPs(1)[0]
	vpLoc := w.Facility(ix.Facilities[0]).Loc
	below1, n := 0, 0
	for _, m := range w.MembersOf(ix.ID) {
		if m.Kind != ConnLocal {
			continue
		}
		r := w.Router(m.Router)
		rtt := lat.PointToRouterRTT(vpLoc, 12345, r)
		n++
		if rtt < 1.0 {
			below1++
		}
	}
	if n == 0 {
		t.Fatal("no local members at flagship IXP")
	}
	if frac := float64(below1) / float64(n); frac < 0.93 {
		t.Errorf("only %.2f of flagship locals below 1ms", frac)
	}
}

func TestLatencySampleNeverBelowBase(t *testing.T) {
	w := world(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		base := rng.Float64() * 50
		if s := w.Latency().Sample(rng, base); s < base {
			t.Fatalf("sample %v below base %v", s, base)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := TinyConfig()
	w1, err := Generate(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Members) != len(w2.Members) {
		t.Fatalf("member count differs: %d vs %d", len(w1.Members), len(w2.Members))
	}
	for i := range w1.Members {
		a, b := w1.Members[i], w2.Members[i]
		if a.ASN != b.ASN || a.IXP != b.IXP || a.Iface != b.Iface || a.Kind != b.Kind || a.PortMbps != b.PortMbps {
			t.Fatalf("member %d differs: %+v vs %+v", i, a, b)
		}
	}
	if len(w1.Private) != len(w2.Private) {
		t.Fatalf("private link count differs: %d vs %d", len(w1.Private), len(w2.Private))
	}
}

func TestInterFacilityDelays(t *testing.T) {
	w := world(t)
	var wide *IXP
	for _, ix := range w.IXPs {
		if ix.WideArea {
			wide = ix
			break
		}
	}
	if wide == nil {
		t.Fatal("no wide-area IXP")
	}
	ds := w.Latency().InterFacilityDelays(wide.ID)
	if len(ds) < 10 {
		t.Fatalf("only %d facility pairs for %s", len(ds), wide.Name)
	}
	over10ms := 0
	for _, s := range ds {
		if s.RTTMs <= 0 {
			t.Errorf("non-positive RTT sample %+v", s)
		}
		if s.RTTMs > 10 {
			over10ms++
		}
	}
	// Fig 2a: for NET-IX, 87% of facility pairs have median RTT > 10ms.
	if frac := float64(over10ms) / float64(len(ds)); frac < 0.5 {
		t.Errorf("only %.2f of wide-area facility pairs above 10ms", frac)
	}
}

func TestCommonFacilities(t *testing.T) {
	got := CommonFacilities([]FacilityID{1, 2, 3, 3}, []FacilityID{3, 4, 2, 3})
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("CommonFacilities = %v, want [2 3]", got)
	}
	if got := CommonFacilities(nil, []FacilityID{1}); len(got) != 0 {
		t.Errorf("want empty intersection, got %v", got)
	}
}

func BenchmarkGenerateDefault(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// savedParts is what a world writer saves and a loader hands back to
// FromParts: the entity content of w, with every entity and slice
// freshly allocated as a decoder would, so nothing is shared with w.
func savedParts(w *World) WorldParts {
	p := w.Parts()
	p.Cities = append([]City(nil), p.Cities...)
	p.Private = append([]PrivateLink(nil), p.Private...)
	p.Resellers = append([]ASN(nil), p.Resellers...)
	p.Facilities = copyPtrs(p.Facilities)
	p.IXPs = copyPtrs(p.IXPs)
	p.ASes = copyPtrs(p.ASes)
	p.Routers = copyPtrs(p.Routers)
	p.Members = copyPtrs(p.Members)
	prefixes := make(map[ASN][]netip.Prefix, len(p.Prefixes))
	for asn, ps := range p.Prefixes {
		prefixes[asn] = append([]netip.Prefix(nil), ps...)
	}
	p.Prefixes = prefixes
	return p
}

func copyPtrs[T any](in []*T) []*T {
	out := make([]*T, len(in))
	for i, v := range in {
		c := *v
		out[i] = &c
	}
	return out
}

// TestSaveLoadRoundTrip: a world loaded from its saved parts has the
// same entities and rebuilds the derived state a loader must not
// carry: interface lookups, the prefix table and the latency oracle.
func TestSaveLoadRoundTrip(t *testing.T) {
	w1, err := Generate(TinyConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := FromParts(savedParts(w1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w1.Parts(), w2.Parts()) {
		t.Fatal("entities differ after round trip")
	}
	// Indices rebuilt: interface lookups must work.
	m := w1.Members[0]
	if r, ok := w2.RouterOf(m.Iface); !ok || w2.Router(r).Owner != m.ASN {
		t.Fatal("interface owner lost after load")
	}
	if rid, ok := w2.RouterOf(m.Iface); !ok || rid != m.Router {
		t.Fatal("RouterOf broken after load")
	}
	if !reflect.DeepEqual(w1.ASNs, w2.ASNs) || !reflect.DeepEqual(w1.RouterIDs, w2.RouterIDs) {
		t.Fatal("sorted AS/router IDs differ after load")
	}
	// Prefix table survived.
	for _, asn := range w1.ASNs[:50] {
		if !reflect.DeepEqual(w2.ASPrefixes(asn), w1.ASPrefixes(asn)) {
			t.Fatalf("AS%d prefixes differ", asn)
		}
	}
	// The latency oracle reproduces identical base RTTs (same seed).
	r1 := w1.Routers[w1.RouterIDs[0]]
	r2 := w1.Routers[w1.RouterIDs[len(w1.RouterIDs)/2]]
	if got, want := w2.Latency().RouterRTT(w2.Router(r1.ID), w2.Router(r2.ID)),
		w1.Latency().RouterRTT(r1, r2); got != want {
		t.Fatalf("latency oracle differs after load: %v vs %v", got, want)
	}
}

// TestLoadRejectsGarbage: parts whose members reference an IXP or a
// router the parts do not hold are refused, not assembled.
func TestLoadRejectsGarbage(t *testing.T) {
	w, err := Generate(TinyConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(*Member){
		"unknown IXP":    func(m *Member) { m.IXP = 1 << 30 },
		"unknown router": func(m *Member) { m.Router = 1 << 30 },
	} {
		p := savedParts(w)
		corrupt(p.Members[len(p.Members)/2])
		if _, err := FromParts(p); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestScaledConfigGrowsTheWorld(t *testing.T) {
	if ScaledConfig(1) != DefaultConfig() {
		t.Fatal("ScaledConfig(1) must be the default configuration")
	}
	if ScaledConfig(0) != DefaultConfig() {
		t.Fatal("ScaledConfig(0) must fall back to the default configuration")
	}
	c4 := ScaledConfig(4)
	d := DefaultConfig()
	if c4.NASes != 4*d.NASes {
		t.Fatalf("NASes = %d, want %d", c4.NASes, 4*d.NASes)
	}
	if c4.NIXPs <= d.NIXPs || c4.LargestIXPMembers <= d.LargestIXPMembers {
		t.Fatal("IXP count and size must both grow")
	}
	// Noise and share knobs must not drift with scale.
	if c4.RemoteShareLargest != d.RemoteShareLargest || c4.ResellerFrac != d.ResellerFrac {
		t.Fatal("behavioural fractions must be scale-invariant")
	}

	// Memberships (the inference domain) grow roughly linearly with
	// the factor: 4x should at least double and at most 8x the domain.
	small, err := Generate(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Generate(ScaledConfig(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	ns, nb := len(small.Members), len(big.Members)
	if nb < 2*ns || nb > 8*ns {
		t.Fatalf("4x world has %d memberships vs %d at 1x; want roughly 4x", nb, ns)
	}
}
