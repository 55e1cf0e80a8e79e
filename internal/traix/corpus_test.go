package traix_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"strings"
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
	fps traix.Paths
)

func corpusFixtures(t testing.TB) (*netsim.World, *registry.Dataset, *registry.IPMap, *traix.Paths) {
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
	return fw, fds, fim, &fps
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

// privObs is one private-hop observation in the address domain: the
// member's interface and the AS on the other side.
type privObs struct {
	ip    netip.Addr
	other netsim.ASN
}

// appendLoopOrder is each AS's observations as a per-member append
// loop over the hops gives them: hop by hop in path-then-hop order,
// (A address, B AS) to A's AS, then (B address, A AS) to B's.
func appendLoopOrder(hops []traix.PrivateHop) map[netsim.ASN][]privObs {
	byAS := make(map[netsim.ASN][]privObs)
	for _, h := range hops {
		byAS[h.AAS] = append(byAS[h.AAS], privObs{h.AIP, h.BAS})
		byAS[h.BAS] = append(byAS[h.BAS], privObs{h.BIP, h.AAS})
	}
	return byAS
}

// samePrivNeighbours holds the index CompactStatic builds, read back
// through its intern table, to want's hops: every member's
// observations, in the append loop's order (Step 5 lists a router's
// neighbours in first-observation order, so the order is part of the
// contract). It returns the table and the index.
func samePrivNeighbours(t *testing.T, label string, corpus *traix.Corpus, want []traix.PrivateHop) (*ident.Table, traix.PrivNeighbours) {
	t.Helper()
	tab := ident.NewTable(0, 0, 0)
	pn := corpus.CompactStatic(tab)
	if pn.Len() != len(want) {
		t.Fatalf("%s: %d private hops vs %d", label, pn.Len(), len(want))
	}
	byAS := appendLoopOrder(want)
	total := 0
	for m := 0; m < tab.NumMembers(); m++ {
		var got []privObs
		for _, n := range pn.Of(ident.MemberID(m)) {
			got = append(got, privObs{tab.Addr(n.Iface), tab.ASN(n.Other)})
		}
		if asn := tab.ASN(ident.MemberID(m)); !slices.Equal(got, byAS[asn]) {
			t.Fatalf("%s: %v observations %v, the append loop gives %v", label, asn, got, byAS[asn])
		}
		total += len(got)
	}
	if total != 2*len(want) {
		t.Fatalf("%s: %d observations indexed for %d hops", label, total, len(want))
	}
	return tab, pn
}

// TestPrivNeighboursKeepHopOrder pins the neighbour index's layout:
// each member's observations come in the order of the per-member
// append loop it replaces, a member interned after the build has none,
// and the corpus hands its static hops over once.
func TestPrivNeighboursKeepHopOrder(t *testing.T) {
	w, ds, im, paths := corpusFixtures(t)
	d := traix.NewDetector(ds, im)
	corpus := traix.NewCorpus(paths, traix.NewLANSet(traix.LANPrefixes(w)), im)
	want := d.DetectPrivateAll(paths)
	tab, pn := samePrivNeighbours(t, "cold", corpus, want)

	// The order check must bite: some member is a hop's B side before
	// it is a later hop's A side, so a layout listing every member's A
	// sides first would differ.
	seenB, mixed := make(map[netsim.ASN]bool), false
	for _, h := range want {
		mixed = mixed || seenB[h.AAS]
		seenB[h.BAS] = true
	}
	if !mixed {
		t.Fatal("no member is a B side before an A side; the order check is vacuous")
	}
	if late := tab.AddMember(netsim.ASN(1<<32 - 1)); len(pn.Of(late)) != 0 {
		t.Fatalf("a member interned after the build has %d observations", len(pn.Of(late)))
	}
	if again := corpus.CompactStatic(tab); again.Len() != 0 {
		t.Fatalf("a second CompactStatic returned %d hops", again.Len())
	}
}

// TestCorpusMatchesColdDetection pins the corpus contract: a settled
// corpus's live crossings and its static private hops must
// reproduce the full DetectAll / DetectPrivateAll passes exactly, in
// content and order.
func TestCorpusMatchesColdDetection(t *testing.T) {
	w, ds, im, paths := corpusFixtures(t)
	d := traix.NewDetector(ds, im)
	corpus := traix.NewCorpus(paths, traix.NewLANSet(traix.LANPrefixes(w)), im)
	corpus.Settle(d)

	gotC, wantP := corpus.Crossings(), d.DetectPrivateAll(paths)
	sameCrossings(t, "cold", gotC, d.DetectAll(paths))
	samePrivNeighbours(t, "cold", corpus, wantP)

	if len(gotC) == 0 || len(wantP) == 0 {
		t.Fatalf("degenerate corpus: %d crossings, %d private hops", len(gotC), len(wantP))
	}
}

// TestCorpusTracksMembershipChurn is the membership-split contract:
// settled against a mutated dataset (joins and leaves), the dynamic
// candidates must match a full scan against it, and the static private
// hops, computed once from the prefix-to-AS map, must still match.
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
	corpus.Settle(d)
	sameCrossings(t, "churned", corpus.Crossings(), d.DetectAll(paths))
	samePrivNeighbours(t, "churned", corpus, d.DetectPrivateAll(paths))
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
// DetectDelta, the live rows equal a full detection over the post-delta
// detector, the per-member pair lists equal those
// rows folded into counted (near interface, IXP) pairs in ID space,
// and the members DetectDelta reports are exactly those whose pair set
// changed — not those whose rows only moved between pairs they keep.
func TestCrossingPlaneTracksDeltas(t *testing.T) {
	w, ds0, im, paths := corpusFixtures(t)
	ds := ds0.Clone()
	lans := traix.NewLANSet(traix.LANPrefixes(w))
	d := traix.NewDetector(ds, im)
	corpus := traix.NewCorpus(paths, lans, im)
	tab, names := ixpTable(ds)
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
	movedOnly := 0
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
		label := fmt.Sprintf("delta %d", step)
		was := pairsByMember(t, label, corpus.Crossings(), tab)
		reported := map[ident.MemberID]bool{}
		for _, m := range corpus.DetectDelta(d, changed, tab) {
			reported[m] = true
		}

		want := d.DetectAll(paths)
		sameCrossings(t, label, corpus.Crossings(), want)
		now := pairsByMember(t, label, want, tab)
		for m := 0; m < tab.NumMembers(); m++ {
			got := corpus.MemberPairs(ident.MemberID(m))
			if !slices.Equal(got, now[ident.MemberID(m)]) {
				t.Fatalf("%s: member %d lists pairs %v, detection %v", label, m, got, now[ident.MemberID(m)])
			}
		}
		for m := range now {
			if int(m) >= tab.NumMembers() {
				t.Fatalf("%s: member %d with crossings is outside the member space", label, m)
			}
			if _, ok := was[m]; !ok {
				was[m] = nil // compare every member present on either side
			}
		}
		setChanged, countOnly := 0, 0
		for m, pairs := range was {
			switch {
			case !slices.EqualFunc(pairs, now[m], samePair):
				setChanged++
				if !reported[m] {
					t.Fatalf("%s: member %d's pair set changed but DetectDelta did not report it", label, m)
				}
			case reported[m]:
				t.Fatalf("%s: DetectDelta reported member %d, whose pair set did not change", label, m)
			case !slices.Equal(pairs, now[m]):
				countOnly++
			}
		}
		for m := range reported {
			if _, ok := was[m]; !ok {
				t.Fatalf("%s: DetectDelta reported member %d, which has no crossings", label, m)
			}
		}
		if setChanged == 0 {
			t.Fatalf("%s changed no member's pair set; the report check is vacuous", label)
		}
		movedOnly += countOnly
	}
	if movedOnly == 0 {
		t.Fatal("no delta moved rows between pairs a member keeps; the exactness check is vacuous")
	}
	if final := len(corpus.Crossings()); final == initial {
		t.Fatalf("deltas left the crossing count at %d; test is vacuous", initial)
	}
}

// TestDetectDeltaNeedsPlane pins DetectDelta's precondition: on a
// corpus that was never settled and compacted, or that follows another
// detector, it panics with a message naming Settle and Compact instead
// of rebuilding anything.
func TestDetectDeltaNeedsPlane(t *testing.T) {
	w, ds, im, paths := corpusFixtures(t)
	d := traix.NewDetector(ds, im)
	corpus := traix.NewCorpus(paths, traix.NewLANSet(traix.LANPrefixes(w)), im)
	tab, _ := ixpTable(ds)
	mustPanic := func(label string, d *traix.Detector) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg, _ := recover().(string); !strings.Contains(msg, "Settle, then Compact") {
				t.Fatalf("%s: DetectDelta recovered %q, want the Settle/Compact precondition", label, msg)
			}
		}()
		corpus.DetectDelta(d, nil, tab)
	}
	mustPanic("unsettled", d)
	corpus.Settle(d)
	mustPanic("settled, not compacted", d)
	corpus.Compact(tab)
	mustPanic("another detector", traix.NewDetector(ds, im))
	if dirty := corpus.DetectDelta(d, nil, tab); len(dirty) != 0 {
		t.Fatalf("an empty delta dirtied %d members", len(dirty))
	}
}

// TestKeyAddsMergeMatchesFullSort holds DetectDelta's merge of newly
// re-settled rule-3 keys into the sorted pending list to a full sort:
// after every delta of a random sequence the list must equal its own
// sorted copy and still hold every entry it held before, unless the
// delta rebuilt the index.
func TestKeyAddsMergeMatchesFullSort(t *testing.T) {
	w, ds0, im, paths := corpusFixtures(t)
	ds := ds0.Clone()
	d := traix.NewDetector(ds, im)
	corpus := traix.NewCorpus(paths, traix.NewLANSet(traix.LANPrefixes(w)), im)
	tab, _ := ixpTable(ds)
	corpus.Settle(d)
	corpus.Compact(tab)

	// Churn only crossing anchors, a few dozen of them, so that most
	// deltas re-settle candidates and departed anchors soon re-join.
	var known []netip.Addr
	seen := map[netip.Addr]bool{}
	for _, c := range corpus.Crossings() {
		if !seen[c.IXPIP] {
			seen[c.IXPIP] = true
			known = append(known, c.IXPIP)
		}
	}
	sort.Slice(known, func(i, j int) bool { return known[i].Less(known[j]) })
	known = known[:min(len(known), 40)]
	type rec struct {
		ixp string
		asn netsim.ASN
	}
	left := map[netip.Addr]rec{}
	rng := rand.New(rand.NewSource(24))
	merged := 0
	for step := 0; step < 60; step++ {
		changed := map[netip.Addr]bool{}
		for n := 1 + rng.Intn(6); n > 0; n-- {
			ip := known[rng.Intn(len(known))]
			if r, gone := left[ip]; gone {
				// Re-join, half the time under a foreign AS, which
				// moves the rule-3 keys of candidates reading it.
				if rng.Intn(2) == 0 {
					r.asn = w.Members[rng.Intn(len(w.Members))].ASN
				}
				d.NoteJoin(r.ixp, r.asn)
				ds.IfaceIXP[ip], ds.IfaceASN[ip] = r.ixp, r.asn
				delete(left, ip)
			} else {
				r := rec{ds.IfaceIXP[ip], ds.IfaceASN[ip]}
				d.NoteLeave(r.ixp, r.asn)
				delete(ds.IfaceIXP, ip)
				delete(ds.IfaceASN, ip)
				left[ip] = r
			}
			changed[ip] = true
		}
		prev := corpus.KeyAdds()
		corpus.DetectDelta(d, changed, tab)
		got := corpus.KeyAdds()
		want := slices.Clone(got)
		slices.SortFunc(want, func(a, b [2]uint64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: pending keys %v, full sort %v", step, got, want)
		}
		if len(got) < len(prev) {
			continue // the index was rebuilt and the list emptied
		}
		// Both lists are sorted, so prev is contained in got exactly
		// when a merge walk finds each of its entries.
		j := 0
		for _, e := range got {
			if j < len(prev) && e == prev[j] {
				j++
			}
		}
		if j != len(prev) {
			t.Fatalf("step %d: the merge lost %d of %d earlier entries", step, len(prev)-j, len(prev))
		}
		if len(prev) > 0 && len(got) > len(prev) {
			merged++
		}
	}
	if merged < 5 {
		t.Fatalf("only %d deltas merged new keys into a non-empty list; the check is vacuous", merged)
	}
}

// ixpTable returns an intern table over the IXP names the dataset's
// prefix and interface records use, interned in name order, and the
// set of those names.
func ixpTable(ds *registry.Dataset) (*ident.Table, map[string]bool) {
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
	return tab, names
}

func samePair(a, b traix.NearPair) bool { return a.Near == b.Near && a.IXP == b.IXP }

// pairsByMember folds crossings into each near member's counted (near
// interface, IXP) pairs in ID space, sorted by (near, IXP): what the
// corpus's MemberPairs lists must hold.
func pairsByMember(t *testing.T, label string, rows []traix.Crossing, tab *ident.Table) map[ident.MemberID][]traix.NearPair {
	t.Helper()
	out := map[ident.MemberID][]traix.NearPair{}
	for _, c := range rows {
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
		out[m] = append(out[m], traix.NearPair{Near: near, IXP: x, Rows: 1})
	}
	for m, pairs := range out {
		slices.SortFunc(pairs, func(a, b traix.NearPair) int {
			return cmp.Or(cmp.Compare(a.Near, b.Near), cmp.Compare(a.IXP, b.IXP))
		})
		folded := pairs[:0]
		for _, p := range pairs {
			if n := len(folded); n > 0 && samePair(folded[n-1], p) {
				folded[n-1].Rows++
				continue
			}
			folded = append(folded, p)
		}
		out[m] = folded
	}
	return out
}
