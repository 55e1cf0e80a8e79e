package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"testing"

	"rpeer/internal/geo"
	"rpeer/internal/ident"
	"rpeer/internal/ip4"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
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

// iface returns the fixture router's own interface at the given IXP.
func (s *step4Fixture) iface(ix *netsim.IXP) netip.Addr {
	for _, m := range s.w.MembershipsOf(s.router.Owner) {
		if m.Router == s.router.ID && m.IXP == ix.ID {
			return m.Iface
		}
	}
	return netip.Addr{}
}

// crossingPaths fabricates one crossing per IXP with the member as the
// near AS (its infra interface preceding another member's IXP LAN IP).
// The far member interface is fabricated and registered to a second
// AS.
func (s *step4Fixture) crossingPaths(t *testing.T) traix.Paths {
	t.Helper()
	var paths traix.Paths
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
		paths.Add(0, netip.Addr{})
		paths.AddHop(ip4.Addr(s.router.Ifaces[0]), 5)
		paths.AddHop(far.Iface, 6)
		paths.AddHop(interior, 6.5)
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

	rep, err := coldContext(t, s.in).Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if2 := s.iface(s.ix2)
	inf, ok := rep.Lookup(Key{s.ix2.Name, if2})
	if !ok {
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
	t.Run("after-delta", step4ShardIncremental)
}

// TestStep4EvidenceMatchesDatasetWalk pins the peering side of Step
// 4's per-member evidence read to its definition: each member's own
// interfaces equal a walk of the dataset's interface records at
// interned IXPs — roster or not — both after a cold build and after a
// delta that also drops an off-roster record.
func TestStep4EvidenceMatchesDatasetWalk(t *testing.T) {
	in := deltaInputs(t)
	// Move two records onto an exchange the prefix plane does not know,
	// as source noise does when it loses a prefix record.
	known := make([]netip.Addr, 0, len(in.Dataset.IfaceIXP))
	for ip := range in.Dataset.IfaceIXP {
		known = append(known, ip)
	}
	sort.Slice(known, func(i, j int) bool { return known[i].Less(known[j]) })
	for _, ip := range known[:2] {
		in.Dataset.IfaceIXP[ip] = "zz-lost-prefix-ix"
	}
	ctx := newContext(in)
	check := func(label string) {
		t.Helper()
		want := map[ident.MemberID][]obsPair{}
		for ip, name := range in.Dataset.IfaceIXP {
			iface, ok1 := ctx.ids.Iface(ip)
			m, ok2 := ctx.ids.Member(in.Dataset.IfaceASN[ip])
			x, ok3 := ctx.ids.IXP(name)
			if ok1 && ok2 && ok3 {
				want[m] = append(want[m], obsPair{iface, x})
			}
		}
		n := 0
		groups, offRoster := ctx.memberships()
		for m := 0; m < ctx.ids.NumMembers(); m++ {
			_, mems := ctx.step4Evidence(groups, offRoster, ident.MemberID(m), nil)
			if len(mems) == 0 {
				continue
			}
			n++
			w := want[ident.MemberID(m)]
			sort.Slice(w, func(i, j int) bool { return w[i].iface < w[j].iface })
			if !slices.Equal(mems, w) {
				t.Fatalf("%s: member %d observes %v, dataset walk %v", label, m, mems, w)
			}
		}
		if n != len(want) {
			t.Fatalf("%s: %d members observed, dataset walk has %d", label, n, len(want))
		}
	}
	check("cold")

	var offRoster []Key
	for ip, name := range in.Dataset.IfaceIXP {
		if !ctx.HasIXP(name) {
			offRoster = append(offRoster, Key{IXP: name, Iface: ip})
		}
	}
	if len(offRoster) != 2 {
		t.Fatalf("%d off-roster records, want 2", len(offRoster))
	}
	sort.Slice(offRoster, func(i, j int) bool { return offRoster[i].Iface.Less(offRoster[j].Iface) })
	d := churnDelta(t, in, 20, 20)
	d.Leaves = dedupLeaves(append(d.Leaves, offRoster[0]))
	if err := ctx.Apply(d); err != nil {
		t.Fatal(err)
	}
	check("after delta")
}

// step4ShardIncremental extends the bit-identity contract to the
// incremental run: after a churn delta and after an RTT delta, the
// sharded re-run of the dirty members' router runs must equal the
// serial incremental run and a cold context, for every worker count —
// and must be incremental, over at least two dirty member-runs.
func step4ShardIncremental(t *testing.T) {
	deltas := map[string]func(Inputs) Delta{
		"churn": func(in Inputs) Delta { return churnDelta(t, in, 30, 30) },
		"rtt":   func(in Inputs) Delta { return rttDelta(t, in, 150, 3) },
	}
	for name, delta := range deltas {
		var ref *Report
		for _, workers := range []int{1, 4, runtime.NumCPU()} {
			ctx := coldContext(t, deltaInputs(t))
			opt := DefaultOptions()
			opt.Workers = 1
			base, err := ctx.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctx.Apply(delta(ctx.Inputs())); err != nil {
				t.Fatal(err)
			}
			var marks ident.Bits
			for _, m := range ctx.dirtySince(base.gen) {
				marks.Set(uint32(m))
			}
			runs := 0
			cached := ctx.multiRouters(ctx.aliasMemoFor(opt.AliasMode), 0)
			for i := range cached {
				if (i == 0 || cached[i].member != cached[i-1].member) && marks.Get(uint32(cached[i].member)) {
					runs++
				}
			}
			if runs < 2 {
				t.Fatalf("%s: %d dirty member-runs; need >= 2 to exercise sharding", name, runs)
			}
			opt.Workers = workers
			got, path := runPath(t, ctx, opt)
			if path != "incremental" {
				t.Fatalf("%s workers=%d: run took the %s path", name, workers, path)
			}
			label := fmt.Sprintf("%s workers=%d", name, workers)
			if ref == nil {
				ref = got
			}
			reportsEqual(t, label+" vs serial", ref, got)
			cold, err := coldContext(t, ctx.Inputs()).Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, label+" vs cold", cold, got)
		}
	}
}

// TestRunStepMultiIXPSeedFollowsClassOf pins the standalone Step 4
// seed to classOf's rule on a (member, IXP) group whose Steps 1-3
// verdicts conflict: the member's real interface at ix1 is local by
// Step 3 and a second interface above it in address order is remote,
// so the group seeds local — the class of its first decided row, in
// ascending interface order — on every run.
func TestRunStepMultiIXPSeedFollowsClassOf(t *testing.T) {
	s := newStep4Fixture(t)
	real := s.iface(s.ix)
	s.in.Paths = s.crossingPaths(t)
	owner := s.router.Owner
	fac := s.w.Facility(s.ix.Facilities[0])
	s.in.Colo.ASFacilities[owner] = []netsim.FacilityID{fac.ID}
	second := lastLANAddr(s.ix.PeeringLAN)
	s.in.Dataset.IfaceASN[second] = owner
	s.in.Dataset.IfaceIXP[second] = s.ix.Name
	if !real.Less(second) {
		t.Fatalf("the real interface %s must sort before %s", real, second)
	}

	ctx := newContext(s.in)
	vp := &pingsim.VP{ID: 9998, IXP: s.ix.ID, Kind: pingsim.KindLG, Facility: fac.ID, Loc: fac.Loc}
	ctx.setPing(real, 0.4, vp, false)
	ctx.setPing(second, 250, vp, false)
	full, err := ctx.Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := full.Lookup(Key{s.ix.Name, real})
	b, _ := full.Lookup(Key{s.ix.Name, second})
	if a.Class != ClassLocal || a.Step != StepRTTColo || b.Class != ClassRemote || b.Step != StepRTTColo {
		t.Fatalf("the group does not conflict: %s is %v by %v, %s is %v by %v", real, a.Class, a.Step, second, b.Class, b.Step)
	}

	var first *Report
	for i := 0; i < 20; i++ {
		rep, err := ctx.RunStep(DefaultOptions(), StepMultiIXP)
		if err != nil {
			t.Fatal(err)
		}
		for _, ip := range []netip.Addr{real, second} {
			if got, _ := rep.Lookup(Key{s.ix.Name, ip}); got.Class != ClassLocal || got.Step != StepMultiIXP {
				t.Fatalf("run %d: %s is %v by %v, want local by multi-ixp (seeded by the first decided row)", i, ip, got.Class, got.Step)
			}
		}
		if first == nil {
			first = rep
		}
		reportsEqual(t, fmt.Sprintf("run %d", i), first, rep)
	}
}

// TestMemberCrossingsMatchPlaneScan holds the corpus's per-member pair
// lists, which Step 4 reads instead of scanning the crossing plane, to
// a full scan of the plane's live crossings in ID space: member m's
// list must hold exactly the distinct (near interface, IXP) pairs of
// its near crossings, sorted, each with its row count. It checks after
// the cold build and after each of a random sequence of churn and RTT
// deltas.
func TestMemberCrossingsMatchPlaneScan(t *testing.T) {
	ctx := newContext(deltaInputs(t))
	check := func(label string) {
		t.Helper()
		scan, rows := planePairs(t, label, ctx)
		listed := 0
		for m := 0; m < ctx.ids.NumMembers(); m++ {
			got := ctx.corpus.MemberPairs(ident.MemberID(m))
			if want := scan[ident.MemberID(m)]; !slices.Equal(got, want) {
				t.Fatalf("%s: member %d lists %v, the plane scan %v", label, m, got, want)
			}
			for _, p := range got {
				listed += int(p.Rows)
			}
		}
		if listed != rows || listed == 0 {
			t.Fatalf("%s: the lists count %d rows, the plane %d", label, listed, rows)
		}
	}
	check("cold")

	rng := rand.New(rand.NewSource(23))
	for step := 0; step < 10; step++ {
		in := ctx.Inputs()
		var d Delta
		label := fmt.Sprintf("step %d", step)
		switch {
		case rng.Intn(3) == 0:
			d = rttDelta(t, in, 20+rng.Intn(100), rng.Intn(1000))
			label += " (rtt)"
		default:
			d = churnDelta(t, in, 5+rng.Intn(40), 5+rng.Intn(40))
			label += " (churn)"
		}
		if err := ctx.Apply(d); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if _, err := ctx.Run(DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		check(label)
	}
}

// planePairs scans the crossing plane's live rows into each near
// member's counted (near interface, IXP) pairs, sorted by (near, IXP),
// and returns them with the number of rows at interned IXPs.
func planePairs(t *testing.T, label string, ctx *Context) (map[ident.MemberID][]traix.NearPair, int) {
	t.Helper()
	scan := map[ident.MemberID][]traix.NearPair{}
	rows := 0
	for _, cr := range ctx.corpus.Crossings() {
		x, ok := ctx.ids.IXP(cr.IXP)
		if !ok {
			continue
		}
		near, okN := ctx.ids.Iface(cr.NearIP)
		m, okM := ctx.ids.Member(cr.NearAS)
		if !okN || !okM {
			t.Fatalf("%s: crossing %+v not interned", label, cr)
		}
		scan[m] = append(scan[m], traix.NearPair{Near: near, IXP: x, Rows: 1})
		rows++
	}
	for m, pairs := range scan {
		slices.SortFunc(pairs, func(a, b traix.NearPair) int {
			return cmp.Or(cmp.Compare(a.Near, b.Near), cmp.Compare(a.IXP, b.IXP))
		})
		folded := pairs[:0]
		for _, p := range pairs {
			if n := len(folded); n > 0 && folded[n-1].Near == p.Near && folded[n-1].IXP == p.IXP {
				folded[n-1].Rows++
				continue
			}
			folded = append(folded, p)
		}
		scan[m] = folded
	}
	return scan, rows
}
