package core

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"rpeer/internal/geo"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/registry"
)

// tinyFixture builds a miniature, fully hand-controlled inference
// scenario on top of a TinyConfig world: one IXP, a handful of
// fabricated interfaces, and per-test registry/colo/RTT data. It
// exercises each step's decision rules without the noise of the full
// campaign.
type tinyFixture struct {
	w    *netsim.World
	ix   *netsim.IXP
	in   Inputs
	p    *pipeline
	vp   *pingsim.VP
	next netip.Addr
}

func newTinyFixture(t *testing.T) *tinyFixture {
	t.Helper()
	w, err := netsim.Generate(netsim.TinyConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ix := w.IXPs[0]
	f := &tinyFixture{
		w:  w,
		ix: ix,
		in: Inputs{
			World: w,
			Dataset: &registry.Dataset{
				PrefixIXP: map[netip.Prefix]string{ix.PeeringLAN: ix.Name},
				IfaceASN:  map[netip.Addr]netsim.ASN{},
				IfaceIXP:  map[netip.Addr]string{},
				Ports:     map[registry.PortKey]int{},
				MinPort:   map[string]int{},
			},
			Colo: &registry.ColoDB{
				ASFacilities:  map[netsim.ASN][]netsim.FacilityID{},
				IXPFacilities: map[string][]netsim.FacilityID{ix.Name: ix.Facilities},
			},
			Speed: geo.DefaultSpeedModel(),
		},
		// Fabricated addresses from the top of the peering LAN cannot
		// collide with real member allocations (which grow upward from
		// the bottom).
		next: lastLANAddr(ix.PeeringLAN),
	}
	fac := w.Facility(ix.Facilities[0])
	f.vp = &pingsim.VP{ID: 9999, IXP: ix.ID, Kind: pingsim.KindLG, Facility: fac.ID, Loc: fac.Loc}
	return f
}

func lastLANAddr(p netip.Prefix) netip.Addr {
	ip := p.Addr()
	var last netip.Addr
	for p.Contains(ip) {
		last = ip
		ip = ip.Next()
		if !p.Contains(ip) {
			break
		}
		// Jump in strides: walking a /22 one by one is fine too, but
		// keep it simple and just walk.
	}
	return last
}

// addIface fabricates one member interface for asn.
func (f *tinyFixture) addIface(asn netsim.ASN) netip.Addr {
	ip := f.next
	// Walk downward to stay inside the LAN and away from real members.
	b := ip.As4()
	b[3]--
	f.next = netip.AddrFrom4(b)
	f.in.Dataset.IfaceASN[ip] = asn
	f.in.Dataset.IfaceIXP[ip] = f.ix.Name
	return ip
}

// pipelineWithRTT builds the pipeline and injects a single RTT
// measurement per interface.
func (f *tinyFixture) pipelineWithRTT(rtts map[netip.Addr]float64) (*pipeline, *Report) {
	p := newContext(f.in).newPipeline(DefaultOptions())
	for ip, rtt := range rtts {
		p.ctx.setPing(ip, rtt, f.vp, false)
	}
	return p, p.newDomain(nil)
}

func TestStep1RuleFractionalPortMeansRemote(t *testing.T) {
	f := newTinyFixture(t)
	asFrac := netsim.ASN(70001)
	asFull := netsim.ASN(70002)
	asNoData := netsim.ASN(70003)
	ipFrac := f.addIface(asFrac)
	ipFull := f.addIface(asFull)
	ipNo := f.addIface(asNoData)

	f.in.Dataset.MinPort[f.ix.Name] = 1000
	f.in.Dataset.Ports[registry.PortKey{IXP: f.ix.Name, ASN: asFrac}] = 100
	f.in.Dataset.Ports[registry.PortKey{IXP: f.ix.Name, ASN: asFull}] = 10000

	p, rep := f.pipelineWithRTT(nil)
	p.stepPortCapacity()

	if got, _ := rep.Lookup(Key{f.ix.Name, ipFrac}); got.Class != ClassRemote || got.Step != StepPortCapacity {
		t.Errorf("fractional port: got %v via %v, want remote via port-capacity", got.Class, got.Step)
	}
	if got, _ := rep.Lookup(Key{f.ix.Name, ipFull}); got.Class != ClassUnknown {
		t.Errorf("full port: got %v, want unknown", got.Class)
	}
	if got, _ := rep.Lookup(Key{f.ix.Name, ipNo}); got.Class != ClassUnknown {
		t.Errorf("no port data: got %v, want unknown", got.Class)
	}
}

func TestStep1RuleNoPricingNoInference(t *testing.T) {
	f := newTinyFixture(t)
	asn := netsim.ASN(70001)
	ip := f.addIface(asn)
	// Port record below any plausible minimum, but no pricing data for
	// the IXP: the rule must not fire.
	f.in.Dataset.Ports[registry.PortKey{IXP: f.ix.Name, ASN: asn}] = 100

	p, rep := f.pipelineWithRTT(nil)
	p.stepPortCapacity()
	if got, _ := rep.Lookup(Key{f.ix.Name, ip}); got.Class != ClassUnknown {
		t.Errorf("no Cmin: got %v, want unknown", got.Class)
	}
}

func TestStep3RuleLocalColocatedLowRTT(t *testing.T) {
	f := newTinyFixture(t)
	asn := netsim.ASN(70001)
	ip := f.addIface(asn)
	f.in.Colo.ASFacilities[asn] = []netsim.FacilityID{f.ix.Facilities[0]}

	p, rep := f.pipelineWithRTT(map[netip.Addr]float64{ip: 0.4})
	p.stepRTTColo()
	got, _ := rep.Lookup(Key{f.ix.Name, ip})
	if got.Class != ClassLocal || got.Step != StepRTTColo {
		t.Errorf("colocated sub-ms member: got %v via %v, want local via rtt+colo", got.Class, got.Step)
	}
	if got.FeasibleIXPFacilities < 1 {
		t.Errorf("feasible facilities = %d, want >= 1", got.FeasibleIXPFacilities)
	}
}

func TestStep3RuleRemoteNoFeasibleFacility(t *testing.T) {
	f := newTinyFixture(t)
	asn := netsim.ASN(70001)
	ip := f.addIface(asn)
	// 80 ms from a single-metro IXP: dmin of the ring is far beyond the
	// IXP's facilities; rule 1(i) must fire even with no colo data.
	p, rep := f.pipelineWithRTT(map[netip.Addr]float64{ip: 80})
	p.stepRTTColo()
	got, _ := rep.Lookup(Key{f.ix.Name, ip})
	if got.Class != ClassRemote {
		t.Errorf("80ms member at single-metro IXP: got %v, want remote (rule 1(i))", got.Class)
	}
	if got.FeasibleIXPFacilities != 0 {
		t.Errorf("feasible facilities = %d, want 0", got.FeasibleIXPFacilities)
	}
}

// nearbyNonIXPFacility finds a facility 60-250 km from the VP that does
// not belong to the IXP (the Rotterdam scenario).
func nearbyNonIXPFacility(f *tinyFixture) (netsim.FacilityID, bool) {
	for _, fac := range f.w.Facilities {
		if containsFacID(f.ix.Facilities, fac.ID) {
			continue
		}
		d := geo.DistanceKm(f.vp.Loc, fac.Loc)
		if d > 60 && d < 250 {
			return fac.ID, true
		}
	}
	return -1, false
}

func containsFacID(s []netsim.FacilityID, id netsim.FacilityID) bool {
	for _, x := range s {
		if x == id {
			return true
		}
	}
	return false
}

func TestStep3RuleRemoteNearbyPeer(t *testing.T) {
	// The paper's Rotterdam case: low RTT, but the member's only
	// feasible facility is not an IXP facility -> remote despite the
	// sub-threshold latency.
	f := newTinyFixture(t)
	facID, ok := nearbyNonIXPFacility(f)
	if !ok {
		t.Skip("no nearby non-IXP facility in this tiny world")
	}
	asn := netsim.ASN(70001)
	ip := f.addIface(asn)
	f.in.Colo.ASFacilities[asn] = []netsim.FacilityID{facID}

	// RTT consistent with the nearby facility: distance/66 km/ms * 2
	// (around 2-6 ms), with dmax comfortably covering it but the ring
	// lower bound excluding the IXP's own metro when RTT is ~2ms+.
	d := geo.DistanceKm(f.vp.Loc, f.w.Facility(facID).Loc)
	rtt := 2 * d / 70
	p, rep := f.pipelineWithRTT(map[netip.Addr]float64{ip: rtt})
	p.stepRTTColo()
	got, _ := rep.Lookup(Key{f.ix.Name, ip})
	if got.Class == ClassLocal {
		t.Errorf("nearby remote (%.0f km, %.1f ms): inferred local", d, rtt)
	}
}

func TestStep3RuleUnknownWithoutColoData(t *testing.T) {
	f := newTinyFixture(t)
	asn := netsim.ASN(70001)
	ip := f.addIface(asn)
	// 0.5 ms: a feasible IXP facility exists, but without colocation
	// data the rule must defer (rule 3).
	p, rep := f.pipelineWithRTT(map[netip.Addr]float64{ip: 0.5})
	p.stepRTTColo()
	got, _ := rep.Lookup(Key{f.ix.Name, ip})
	if got.Class != ClassUnknown {
		t.Errorf("no colo data: got %v, want unknown (defer to steps 4/5)", got.Class)
	}
}

func TestStep3RoundingLGWidensRing(t *testing.T) {
	f := newTinyFixture(t)
	asn := netsim.ASN(70001)
	ip := f.addIface(asn)
	f.in.Colo.ASFacilities[asn] = []netsim.FacilityID{f.ix.Facilities[0]}

	p, rep := f.pipelineWithRTT(map[netip.Addr]float64{ip: 1.0})
	p.ctx.setPing(ip, 1.0, f.vp, true) // the LG rounded 0.2ms up to 1ms
	p.stepRTTColo()
	got, _ := rep.Lookup(Key{f.ix.Name, ip})
	if got.Class != ClassLocal {
		t.Errorf("rounded 1ms local: got %v, want local (dmin from RTT-1)", got.Class)
	}
}

func TestAllShareFacility(t *testing.T) {
	f := newTinyFixture(t)
	p := newContext(f.in).newPipeline(DefaultOptions())
	f.in.Colo.IXPFacilities["A"] = []netsim.FacilityID{1, 2}
	f.in.Colo.IXPFacilities["B"] = []netsim.FacilityID{2, 3}
	f.in.Colo.IXPFacilities["C"] = []netsim.FacilityID{3, 4}
	s := p.ctx.getScratch()
	defer p.ctx.putScratch(s)
	if !p.allShareFacility(s, []string{"A", "B"}) {
		t.Error("A and B share facility 2")
	}
	if p.allShareFacility(s, []string{"A", "B", "C"}) {
		t.Error("A, B, C share nothing in common")
	}
	if p.allShareFacility(s, nil) {
		t.Error("empty set cannot share a facility")
	}
}

func TestFacDist(t *testing.T) {
	f := newTinyFixture(t)
	p := newContext(f.in).newPipeline(DefaultOptions())
	f0 := f.ix.Facilities[0]
	minD, maxD, ok := p.facDist([]netsim.FacilityID{f0}, []netsim.FacilityID{f0})
	if !ok || minD != 0 || maxD != 0 {
		t.Errorf("self distance = (%v,%v,%v), want (0,0,true)", minD, maxD, ok)
	}
	if _, _, ok := p.facDist(nil, []netsim.FacilityID{f0}); ok {
		t.Error("empty set must yield ok=false")
	}
}

// TestColoFacilityIDsOutsideTheTable runs the pipeline over colocation
// records that name a facility beyond the geometry table and a negative
// facility ID, as an unchecked world file can carry. Neither may panic
// a shard worker. A negative ID is never stamped, voted or located, so
// appending one to every AS record leaves the report unchanged. An ID
// beyond the table still counts in Step 5's vote, so the report may
// move, but it must not depend on the worker count.
func TestColoFacilityIDsOutsideTheTable(t *testing.T) {
	in, ref, _ := fixtures(t)
	maxID := netsim.FacilityID(-1)
	for _, f := range in.World.Facilities {
		if f != nil && f.ID > maxID {
			maxID = f.ID
		}
	}
	with := func(extra ...netsim.FacilityID) Inputs {
		colo := &registry.ColoDB{
			ASFacilities:  make(map[netsim.ASN][]netsim.FacilityID, len(in.Colo.ASFacilities)),
			IXPFacilities: in.Colo.IXPFacilities,
		}
		for asn, facs := range in.Colo.ASFacilities {
			colo.ASFacilities[asn] = append(slices.Clone(facs), extra...)
		}
		out := in
		out.Colo = colo
		return out
	}
	opt := DefaultOptions()
	neg, err := coldContext(t, with(-1)).Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "negative facility ID", ref, neg)

	beyond := with(maxID+3, -1)
	var first *Report
	for _, workers := range []int{1, 4} {
		opt.Workers = workers
		rep, err := coldContext(t, beyond).Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep
		}
		reportsEqual(t, fmt.Sprintf("facility beyond the table, workers=%d", workers), first, rep)
	}
}
