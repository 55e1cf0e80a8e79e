package core

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"

	"rpeer/internal/geo"
	"rpeer/internal/netsim"
	"rpeer/internal/registry"
	"rpeer/internal/traix"
)

// step4Fixture extends the tiny fixture with a second IXP and a
// hand-built traceroute corpus, so the multi-IXP router rules can be
// exercised on known geometry. The "member" is a real router of the
// tiny world (alias resolution must be able to probe it), observed
// entering both exchanges.
type step4Fixture struct {
	*tinyFixture
	ix2    *netsim.IXP
	member *netsim.Member // a real multi-IXP membership of the world
	router *netsim.Router
}

// newStep4Fixture picks a genuine multi-IXP router from the tiny world
// (so IP-ID probing works) and rebuilds a minimal dataset around its
// first two IXPs.
func newStep4Fixture(t *testing.T) *step4Fixture {
	t.Helper()
	f := newTinyFixture(t)
	// Find a router of the world facing >= 2 IXPs.
	for _, id := range f.w.RouterIDs {
		r := f.w.Router(id)
		if len(r.IXPs) < 2 {
			continue
		}
		var mem *netsim.Member
		for _, m := range f.w.MembershipsOf(r.Owner) {
			if m.Router == id && m.IXP == r.IXPs[0] {
				mem = m
				break
			}
		}
		if mem == nil {
			continue
		}
		ix1 := f.w.IXP(r.IXPs[0])
		ix2 := f.w.IXP(r.IXPs[1])
		s := &step4Fixture{tinyFixture: f, ix2: ix2, member: mem, router: r}
		s.ix = ix1
		// Rebuild the dataset around these two IXPs.
		s.in.Dataset = &registry.Dataset{
			PrefixIXP: map[netip.Prefix]string{
				ix1.PeeringLAN: ix1.Name,
				ix2.PeeringLAN: ix2.Name,
			},
			IfaceASN: map[netip.Addr]netsim.ASN{},
			IfaceIXP: map[netip.Addr]string{},
			Ports:    map[registry.PortKey]int{},
			MinPort:  map[string]int{},
		}
		s.in.Colo = &registry.ColoDB{
			ASFacilities: map[netsim.ASN][]netsim.FacilityID{},
			IXPFacilities: map[string][]netsim.FacilityID{
				ix1.Name: ix1.Facilities,
				ix2.Name: ix2.Facilities,
			},
		}
		// Register the member's interfaces at both IXPs.
		for _, m := range f.w.MembershipsOf(r.Owner) {
			if m.Router != id {
				continue
			}
			name := f.w.IXP(m.IXP).Name
			if m.IXP != ix1.ID && m.IXP != ix2.ID {
				continue
			}
			s.in.Dataset.IfaceASN[m.Iface] = m.ASN
			s.in.Dataset.IfaceIXP[m.Iface] = name
		}
		if len(s.in.Dataset.IfaceASN) >= 2 {
			return s
		}
	}
	t.Skip("no suitable multi-IXP router in tiny world")
	return nil
}

// iface returns the member's interface at the given IXP.
func (s *step4Fixture) iface(ix *netsim.IXP) netip.Addr {
	for ip, name := range s.in.Dataset.IfaceIXP {
		if name == ix.Name {
			return ip
		}
	}
	return netip.Addr{}
}

// crossingPaths fabricates one crossing per IXP with the member as the
// near AS (its infra interface preceding another member's IXP LAN IP).
// The far member interface is fabricated and registered to a second
// AS.
func (s *step4Fixture) crossingPaths(t *testing.T) []*traix.Path {
	t.Helper()
	var paths []*traix.Path
	for _, ix := range []*netsim.IXP{s.ix, s.ix2} {
		// The far side of each crossing is a real member of this IXP in
		// a different AS, so the interior hop resolves via its prefix.
		var far *netsim.Member
		for _, m := range s.w.MembersOf(ix.ID) {
			if m.ASN != s.router.Owner {
				far = m
				break
			}
		}
		if far == nil {
			t.Skip("no far member")
		}
		s.in.Dataset.IfaceASN[far.Iface] = far.ASN
		s.in.Dataset.IfaceIXP[far.Iface] = ix.Name
		interior := s.w.ASPrefixes(far.ASN)[0].Addr().Next()
		paths = append(paths, &traix.Path{Hops: []traix.Hop{
			{IP: s.router.Ifaces[0], RTTMs: 5},
			{IP: far.Iface, RTTMs: 6},
			{IP: interior, RTTMs: 6.5},
		}})
	}
	return paths
}

func TestStep4RemotePropagation(t *testing.T) {
	s := newStep4Fixture(t)
	s.in.Paths = s.crossingPaths(t)

	// Seed: the member is known remote at ix1 (fractional port) and its
	// colocation record places it very far from ix1 — farther than any
	// ix2 facility is from ix1, so condition 2(b) holds for ix2.
	owner := s.router.Owner
	s.in.Dataset.MinPort[s.ix.Name] = 1000
	s.in.Dataset.Ports[registry.PortKey{IXP: s.ix.Name, ASN: owner}] = 100

	// Give the AS a colo record at the facility geographically farthest
	// from ix1.
	far := farthestFacilityFrom(s, s.ix)
	if far < 0 {
		t.Skip("no distant facility")
	}
	s.in.Colo.ASFacilities[owner] = []netsim.FacilityID{far}

	rep, err := Run(s.in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if2 := s.iface(s.ix2)
	inf := rep.Inferences[Key{s.ix2.Name, if2}]
	if inf == nil {
		t.Fatal("no inference for second IXP membership")
	}
	// Whether 2(b) fires depends on the world geometry; when it does,
	// the verdict must be remote via step 4 and never local.
	if inf.Class == ClassLocal {
		t.Errorf("step 4 inferred local at %s for a router anchored remote at %s", s.ix2.Name, s.ix.Name)
	}
	if inf.Class == ClassRemote && inf.Step == StepMultiIXP {
		t.Logf("rule 2(b) propagated remote to %s as expected", s.ix2.Name)
	}
}

// farthestFacilityFrom returns the facility with the largest distance
// from the IXP's first facility.
func farthestFacilityFrom(s *step4Fixture, ix *netsim.IXP) netsim.FacilityID {
	base := s.w.Facility(ix.Facilities[0])
	best := netsim.FacilityID(-1)
	bestD := 0.0
	for _, f := range s.w.Facilities {
		d := distanceBetween(base, f)
		if d > bestD {
			bestD, best = d, f.ID
		}
	}
	return best
}

func distanceBetween(a, b *netsim.Facility) float64 {
	return geo.DistanceKm(a.Loc, b.Loc)
}

// TestStep4ShardDeterminism pins the bit-identity contract of the
// sharded Step-4 propagation: the member-run sweep must produce the
// same report — inferences AND router taxonomy — whether it runs
// serially or fanned out, in both the pipeline flow and the
// standalone per-step evaluation. Workers beyond the run count
// exercise the cap; NumCPU exercises whatever this host fans out to.
func TestStep4ShardDeterminism(t *testing.T) {
	in, _, _ := fixtures(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture world must actually contain several member runs, or
	// the parallel branch would silently collapse to serial.
	cached := ctx.multiRouters(ctx.aliasMemoFor(DefaultOptions().AliasMode), 0)
	runs := 0
	for i := range cached {
		if i == 0 || cached[i].member != cached[i-1].member {
			runs++
		}
	}
	if runs < 2 {
		t.Fatalf("fixture world has %d member runs; need >= 2 to exercise sharding", runs)
	}

	serial := DefaultOptions()
	serial.Workers = 1
	refRun, err := ctx.Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	refStep, err := ctx.RunStep(serial, StepMultiIXP)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		par := DefaultOptions()
		par.Workers = workers
		got, err := ctx.Run(par)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, fmt.Sprintf("step4 pipeline workers=%d", workers), refRun, got)
		gotStep, err := ctx.RunStep(par, StepMultiIXP)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, fmt.Sprintf("step4 standalone workers=%d", workers), refStep, gotStep)
	}
}
