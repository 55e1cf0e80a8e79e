package routing

import (
	"testing"

	"rpeer/internal/netsim"
)

var (
	cw  *netsim.World
	can *Analysis
)

func analysis(t testing.TB) (*netsim.World, *Analysis) {
	t.Helper()
	if cw == nil {
		w, err := netsim.Generate(netsim.DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cw = w
		flagship := w.LargestIXPs(1)[0]
		var remotes []netsim.ASN
		for _, m := range w.MembersOf(flagship.ID) {
			if m.Remote() {
				remotes = append(remotes, m.ASN)
			}
		}
		can = Analyze(w, flagship.ID, remotes, DefaultConfig())
	}
	return cw, can
}

func TestAnalyzeProducesPairs(t *testing.T) {
	_, a := analysis(t)
	if len(a.Pairs) < 1000 {
		t.Fatalf("only %d pairs analysed", len(a.Pairs))
	}
	if a.HotPotato+a.FartherRP+a.CloserRP != len(a.Pairs) {
		t.Fatal("outcome counts do not sum to pairs")
	}
}

func TestOutcomeFractionsShape(t *testing.T) {
	_, a := analysis(t)
	hot, farther, closer := a.Fractions()
	t.Logf("hot-potato=%.3f fartherRP=%.3f closerRP=%.3f (n=%d)", hot, farther, closer, len(a.Pairs))
	// Paper Section 6.4: 66% / 18% / 16%.
	if hot < 0.55 || hot > 0.78 {
		t.Errorf("hot-potato share = %.3f, want ~0.66", hot)
	}
	if farther < 0.05 || farther > 0.30 {
		t.Errorf("farther-RP share = %.3f, want ~0.18", farther)
	}
	if closer < 0.05 || closer > 0.30 {
		t.Errorf("closer-RP-unused share = %.3f, want ~0.16", closer)
	}
}

func TestNonCompliantPairsHavePositiveDelta(t *testing.T) {
	_, a := analysis(t)
	for _, p := range a.Pairs {
		if p.Outcome == HotPotato {
			if p.ViaIXP != p.ClosestIXP {
				t.Fatal("hot-potato pair crossed non-closest IXP")
			}
			continue
		}
		if p.DeltaKm <= 0 {
			t.Fatalf("non-compliant pair with delta %.1f km", p.DeltaKm)
		}
		if p.ViaIXP == p.ClosestIXP {
			t.Fatal("non-compliant pair crossed the closest IXP")
		}
	}
}

func TestDeterministic(t *testing.T) {
	w, a := analysis(t)
	flagship := w.LargestIXPs(1)[0]
	var remotes []netsim.ASN
	for _, m := range w.MembersOf(flagship.ID) {
		if m.Remote() {
			remotes = append(remotes, m.ASN)
		}
	}
	b := Analyze(w, flagship.ID, remotes, DefaultConfig())
	if len(a.Pairs) != len(b.Pairs) || a.HotPotato != b.HotPotato {
		t.Fatal("analysis not deterministic")
	}
}

func TestEmptyRemotes(t *testing.T) {
	w, _ := analysis(t)
	flagship := w.LargestIXPs(1)[0]
	a := Analyze(w, flagship.ID, nil, DefaultConfig())
	if len(a.Pairs) != 0 {
		t.Fatal("pairs produced without remote members")
	}
	hot, _, _ := a.Fractions()
	if hot != 0 {
		t.Fatal("fractions on empty analysis should be zero")
	}
}

func TestMaxPairsCap(t *testing.T) {
	w, _ := analysis(t)
	flagship := w.LargestIXPs(1)[0]
	var remotes []netsim.ASN
	for _, m := range w.MembersOf(flagship.ID) {
		if m.Remote() {
			remotes = append(remotes, m.ASN)
		}
	}
	cfg := DefaultConfig()
	cfg.MaxPairs = 100
	a := Analyze(w, flagship.ID, remotes, cfg)
	if len(a.Pairs) != 100 {
		t.Fatalf("cap not honoured: %d pairs", len(a.Pairs))
	}
}
