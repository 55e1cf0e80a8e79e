package tracesim

import (
	"testing"

	"rpeer/internal/netsim"
	"rpeer/internal/registry"
	"rpeer/internal/traix"
)

var (
	cw    *netsim.World
	paths traix.Paths
	det   *traix.Detector
)

func fixtures(t testing.TB) (*netsim.World, *traix.Paths, *traix.Detector) {
	t.Helper()
	if cw == nil {
		w, err := netsim.Generate(netsim.DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cw = w
		paths = Generate(w, DefaultConfig(), 0)
		ds := registry.Build(w, registry.DefaultNoise(), 42, 0)
		det = traix.NewDetector(ds, registry.BuildIPMap(w))
	}
	return cw, &paths, det
}

func TestGenerateProducesCorpus(t *testing.T) {
	w, ps, _ := fixtures(t)
	if ps.Len() < len(w.Members)*2 {
		t.Fatalf("corpus = %d paths, want >= %d", ps.Len(), len(w.Members)*2)
	}
	for i := 0; i < 100; i++ {
		if lo, hi := ps.Hops(i); hi-lo < 2 {
			t.Fatalf("path with %d hops", hi-lo)
		}
	}
}

func TestCrossingsDetectable(t *testing.T) {
	w, ps, d := fixtures(t)
	crossings := d.DetectAll(ps)
	if len(crossings) < len(w.Members) {
		t.Fatalf("crossings = %d, want >= member count %d", len(crossings), len(w.Members))
	}
	// Near-member coverage: most memberships should appear as the near
	// member of at least one crossing (modulo dataset noise).
	seen := make(map[string]bool)
	for _, c := range crossings {
		seen[c.IXP+"/"+c.NearAS.String()] = true
	}
	covered := 0
	for _, ix := range w.IXPs {
		for _, m := range w.MembersOf(ix.ID) {
			if seen[ix.Name+"/"+m.ASN.String()] {
				covered++
			}
		}
	}
	if frac := float64(covered) / float64(len(w.Members)); frac < 0.75 {
		t.Errorf("near-member crossing coverage = %.2f, want >= 0.75", frac)
	}
}

func TestCrossingsMostlyAccurate(t *testing.T) {
	w, ps, d := fixtures(t)
	crossings := d.DetectAll(ps)
	good := 0
	for _, c := range crossings {
		// Ground truth: the near AS must really be a member of the IXP
		// whose LAN was crossed (by construction of the corpus).
		truth := false
		for _, ix := range w.IXPs {
			if ix.Name != c.IXP {
				continue
			}
			for _, m := range w.MembersOf(ix.ID) {
				if m.ASN == c.NearAS {
					truth = true
					break
				}
			}
		}
		if truth {
			good++
		}
	}
	if frac := float64(good) / float64(len(crossings)); frac < 0.98 {
		t.Errorf("crossing accuracy = %.3f, want >= 0.98", frac)
	}
}

func TestPrivateHopsDetectable(t *testing.T) {
	w, ps, d := fixtures(t)
	priv := d.DetectPrivateAll(ps)
	if len(priv) < len(w.Private)/2 {
		t.Fatalf("private hops = %d, want >= %d", len(priv), len(w.Private)/2)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w, _, _ := fixtures(t)
	a := Generate(w, DefaultConfig(), 0)
	b := Generate(w, DefaultConfig(), 0)
	if a.Len() != b.Len() {
		t.Fatalf("path counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		alo, ahi := a.Hops(i)
		blo, bhi := b.Hops(i)
		if ahi-alo != bhi-blo || a.Dst[i] != b.Dst[i] {
			t.Fatalf("path %d differs", i)
		}
		for j := 0; j < ahi-alo; j++ {
			if a.Hop[alo+j] != b.Hop[blo+j] {
				t.Fatalf("path %d hop %d differs", i, j)
			}
		}
	}
}

func TestFromVP(t *testing.T) {
	w, _, _ := fixtures(t)
	ix := w.LargestIXPs(1)[0]
	vpLoc := w.Facility(ix.Facilities[0]).Loc
	rtts := FromVP(w, ix.ID, vpLoc, 5)
	if len(rtts) != len(w.MembersOf(ix.ID)) {
		t.Fatalf("FromVP covered %d of %d members", len(rtts), len(w.MembersOf(ix.ID)))
	}
	for ip, rtt := range rtts {
		if rtt <= 0 {
			t.Fatalf("non-positive traceroute RTT for %v", ip)
		}
	}
}

func BenchmarkGenerateCorpus(b *testing.B) {
	w, _, _ := fixtures(b)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(w, cfg, 0)
	}
}
