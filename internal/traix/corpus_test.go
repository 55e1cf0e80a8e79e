package traix_test

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"testing"

	"rpeer/internal/ident"
	"rpeer/internal/netsim"
	"rpeer/internal/registry"
	"rpeer/internal/tracesim"
	"rpeer/internal/traix"
)

var (
	fw  *netsim.World
	fds *registry.Dataset
	fim *registry.IPMap
	fps []*traix.Path
)

func corpusFixtures(t testing.TB) (*netsim.World, *registry.Dataset, *registry.IPMap, []*traix.Path) {
	t.Helper()
	if fw == nil {
		w, err := netsim.Generate(netsim.DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		fw = w
		fds = registry.Build(w, registry.DefaultNoise(), 42, 0)
		fim = registry.BuildIPMap(w)
		fps = tracesim.Generate(w, tracesim.DefaultConfig(), 0)
	}
	return fw, fds, fim, fps
}

func sameCrossings(t *testing.T, label string, a, b []traix.Crossing) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d crossings vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: crossing %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

func samePrivate(t *testing.T, label string, a, b []traix.PrivateHop) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d private hops vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: private hop %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// TestCorpusMatchesColdDetection pins the corpus contract: Detect must
// reproduce the full DetectAll / DetectPrivateAll passes exactly, in
// content and order.
func TestCorpusMatchesColdDetection(t *testing.T) {
	w, ds, im, paths := corpusFixtures(t)
	d := traix.NewDetector(ds, im)
	corpus := traix.NewCorpus(paths, traix.NewLANSet(traix.LANPrefixes(w)), im)

	gotC, gotP := corpus.Detect(d)
	sameCrossings(t, "cold", gotC, d.DetectAll(paths))
	samePrivate(t, "cold", gotP, d.DetectPrivateAll(paths))

	if len(gotC) == 0 || len(gotP) == 0 {
		t.Fatalf("degenerate corpus: %d crossings, %d private hops", len(gotC), len(gotP))
	}
}

// TestCorpusTracksMembershipChurn is the incremental-update contract:
// after membership joins and leaves, re-evaluating only the dynamic
// candidates must match a full scan against the mutated dataset.
func TestCorpusTracksMembershipChurn(t *testing.T) {
	w, ds, im, paths := corpusFixtures(t)
	corpus := traix.NewCorpus(paths, traix.NewLANSet(traix.LANPrefixes(w)), im)

	// Mutate a private clone of the dataset: drop every 7th known
	// interface, add every ground-truth member the noise had hidden.
	mut := ds.Clone()
	i := 0
	for ip := range ds.IfaceIXP {
		if i%7 == 0 {
			delete(mut.IfaceIXP, ip)
			delete(mut.IfaceASN, ip)
		}
		i++
	}
	added := 0
	for _, m := range w.Members {
		if _, known := mut.IfaceASN[m.Iface]; known {
			continue
		}
		mut.IfaceASN[m.Iface] = m.ASN
		mut.IfaceIXP[m.Iface] = w.IXP(m.IXP).Name
		added++
	}
	if added == 0 {
		t.Fatal("noise hid no members; churn test is vacuous")
	}

	d := traix.NewDetector(mut, im)
	gotC, gotP := corpus.Detect(d)
	sameCrossings(t, "churned", gotC, d.DetectAll(paths))
	samePrivate(t, "churned", gotP, d.DetectPrivateAll(paths))
}

func TestLANSetContains(t *testing.T) {
	w, _, _, _ := corpusFixtures(t)
	set := traix.NewLANSet(traix.LANPrefixes(w))
	for _, ix := range w.IXPs {
		if !set.Contains(ix.PeeringLAN.Addr().Next()) {
			t.Fatalf("LAN address of %s not recognised", ix.Name)
		}
		if set.Contains(ix.MgmtLAN.Addr()) {
			t.Fatalf("management address of %s misclassified as peering LAN", ix.Name)
		}
	}
}

// TestCrossingPlaneTracksDeltas is the crossing plane's identity
// contract: after any sequence of membership deltas absorbed through
// DetectDelta, the live rows equal a fresh corpus's full detection
// over the post-delta detector, the per-member crossing lists equal
// those rows in ID space, and every member whose crossing rows changed
// is among the moved members DetectDelta reports.
func TestCrossingPlaneTracksDeltas(t *testing.T) {
	w, ds0, im, paths := corpusFixtures(t)
	ds := ds0.Clone()
	lans := traix.NewLANSet(traix.LANPrefixes(w))
	d := traix.NewDetector(ds, im)
	corpus := traix.NewCorpus(paths, lans, im)

	names := map[string]bool{}
	for _, name := range ds.PrefixIXP {
		names[name] = true
	}
	for _, name := range ds.IfaceIXP {
		names[name] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	tab := ident.NewTable(0, 0, 0)
	tab.SetIXPs(sorted)
	corpus.Settle(d)
	corpus.Compact(tab)
	initial := len(corpus.Crossings())

	known := make([]netip.Addr, 0, len(ds.IfaceIXP))
	for ip := range ds.IfaceIXP {
		known = append(known, ip)
	}
	sort.Slice(known, func(i, j int) bool { return known[i].Less(known[j]) })
	var hidden []*netsim.Member
	for _, m := range w.Members {
		if _, ok := ds.IfaceIXP[m.Iface]; !ok && names[w.IXP(m.IXP).Name] {
			hidden = append(hidden, m)
		}
	}

	type rec struct {
		ixp string
		asn netsim.ASN
	}
	leave := func(changed map[netip.Addr]bool, ip netip.Addr) rec {
		r := rec{ds.IfaceIXP[ip], ds.IfaceASN[ip]}
		d.NoteLeave(r.ixp, r.asn)
		delete(ds.IfaceIXP, ip)
		delete(ds.IfaceASN, ip)
		changed[ip] = true
		return r
	}
	join := func(changed map[netip.Addr]bool, ip netip.Addr, r rec) {
		d.NoteJoin(r.ixp, r.asn)
		ds.IfaceIXP[ip] = r.ixp
		ds.IfaceASN[ip] = r.asn
		changed[ip] = true
	}

	left := map[netip.Addr]rec{}
	deltas := []func(changed map[netip.Addr]bool){
		// Leaves: every 7th known interface.
		func(changed map[netip.Addr]bool) {
			for i := 0; i < len(known); i += 7 {
				left[known[i]] = leave(changed, known[i])
			}
		},
		// Joins: the members the registry noise hid.
		func(changed map[netip.Addr]bool) {
			for _, m := range hidden {
				join(changed, m.Iface, rec{w.IXP(m.IXP).Name, m.ASN})
			}
		},
		// Re-joins of the departed interfaces, every other one under a
		// foreign AS, plus leave-and-rejoin in one delta.
		func(changed map[netip.Addr]bool) {
			i := 0
			for _, ip := range known {
				r, ok := left[ip]
				if !ok {
					continue
				}
				if i%2 == 1 {
					r.asn = w.Members[0].ASN
				}
				join(changed, ip, r)
				i++
			}
			for i := 3; i < len(known); i += 11 {
				if _, ok := ds.IfaceIXP[known[i]]; ok {
					r := leave(changed, known[i])
					join(changed, known[i], rec{r.ixp, w.Members[1].ASN})
				}
			}
		},
		// Whole-AS departures: the member sets lose these ASes, so
		// candidates reading only unchanged addresses must drop too.
		func(changed map[netip.Addr]bool) {
			gone := map[netsim.ASN]bool{}
			for i := 0; i < len(w.Members); i += 13 {
				gone[w.Members[i].ASN] = true
			}
			for _, ip := range known {
				if asn, ok := ds.IfaceASN[ip]; ok && gone[asn] {
					leave(changed, ip)
				}
			}
		},
	}
	for step, delta := range deltas {
		changed := map[netip.Addr]bool{}
		delta(changed)
		was := rowsByMember(corpus, tab)
		moved, all := corpus.DetectDelta(d, changed, tab)
		if all {
			t.Fatalf("delta %d: DetectDelta rebuilt the plane", step)
		}
		reported := map[ident.MemberID]bool{}
		for _, m := range moved {
			reported[m] = true
		}
		now := rowsByMember(corpus, tab)
		for m := range now {
			if _, ok := was[m]; !ok {
				was[m] = nil // compare every member present on either side
			}
		}
		movedRows := 0
		for m, rows := range was {
			if !slices.Equal(rows, now[m]) {
				movedRows++
				if !reported[m] {
					t.Fatalf("delta %d: member %d's crossing rows changed but DetectDelta did not report it", step, m)
				}
			}
		}
		if movedRows == 0 {
			t.Fatalf("delta %d moved no member's crossing rows; the report check is vacuous", step)
		}

		want := traix.NewCorpus(paths, lans, im).DetectCrossings(d)
		label := fmt.Sprintf("delta %d", step)
		sameCrossings(t, label, corpus.Crossings(), want)
		scan := map[ident.MemberID][][2]uint32{}
		for _, c := range want {
			x, ok := tab.IXP(c.IXP)
			if !ok {
				continue
			}
			near, okN := tab.Iface(c.NearIP)
			m, okM := tab.Member(c.NearAS)
			_, okX := tab.Iface(c.IXPIP)
			if !okN || !okM || !okX {
				t.Fatalf("%s: crossing %+v not interned", label, c)
			}
			scan[m] = append(scan[m], [2]uint32{uint32(x), uint32(near)})
		}
		for m := 0; m < tab.NumMembers(); m++ {
			var got [][2]uint32
			for _, i := range corpus.MemberCrossings(ident.MemberID(m)) {
				x, near := corpus.CrossingRow(i)
				got = append(got, [2]uint32{uint32(x), uint32(near)})
			}
			if !slices.Equal(got, scan[ident.MemberID(m)]) {
				t.Fatalf("%s: member %d lists crossing rows %v, detection %v", label, m, got, scan[ident.MemberID(m)])
			}
			delete(scan, ident.MemberID(m))
		}
		if len(scan) != 0 {
			t.Fatalf("%s: %d members with crossings are outside the member space", label, len(scan))
		}
	}
	if final := len(corpus.Crossings()); final == initial {
		t.Fatalf("deltas left the crossing count at %d; test is vacuous", initial)
	}
}

// rowsByMember groups the corpus's crossing rows by near member, each
// member's (IXP, near interface) pairs sorted.
func rowsByMember(c *traix.Corpus, tab *ident.Table) map[ident.MemberID][][2]uint32 {
	out := map[ident.MemberID][][2]uint32{}
	for m := 0; m < tab.NumMembers(); m++ {
		for _, i := range c.MemberCrossings(ident.MemberID(m)) {
			x, near := c.CrossingRow(i)
			out[ident.MemberID(m)] = append(out[ident.MemberID(m)], [2]uint32{uint32(x), uint32(near)})
		}
	}
	for _, rows := range out {
		slices.SortFunc(rows, func(a, b [2]uint32) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
	}
	return out
}
