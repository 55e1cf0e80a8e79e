package cone

import (
	"testing"

	"rpeer/internal/netsim"
)

var cw *netsim.World

func world(t testing.TB) *netsim.World {
	t.Helper()
	if cw == nil {
		w, err := netsim.Generate(netsim.DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cw = w
	}
	return cw
}

func TestConeSizes(t *testing.T) {
	w := world(t)
	g := Build(w)
	// Tier-1s must have large cones, stubs cone size 1.
	var t1Max, stubMax int
	stubCount := 0
	for _, asn := range w.ASNs {
		as := w.AS(asn)
		c := g.ConeSize(asn)
		if c < 1 {
			t.Fatalf("cone size %d < 1 for %v", c, asn)
		}
		switch as.Tier {
		case 1:
			if c > t1Max {
				t1Max = c
			}
		case 3:
			if len(g.customers[asn]) == 0 {
				stubCount++
				if c != 1 {
					t.Fatalf("childless stub %v has cone %d", asn, c)
				}
				if c > stubMax {
					stubMax = c
				}
			}
		}
	}
	if t1Max < 100 {
		t.Errorf("largest tier-1 cone = %d, want >= 100", t1Max)
	}
	if stubCount == 0 {
		t.Fatal("no stubs found")
	}
}

func TestConeMonotoneOverProviders(t *testing.T) {
	w := world(t)
	g := Build(w)
	// A provider's cone strictly contains each customer's cone members,
	// so its size must be at least the customer's.
	for _, asn := range w.ASNs[:500] {
		for _, p := range w.AS(asn).Providers {
			if g.ConeSize(p) < g.ConeSize(asn) {
				t.Fatalf("provider %v cone %d < customer %v cone %d", p, g.ConeSize(p), asn, g.ConeSize(asn))
			}
		}
	}
}

func TestConeCached(t *testing.T) {
	w := world(t)
	g := Build(w)
	a := g.ConeSize(w.ASNs[0])
	b := g.ConeSize(w.ASNs[0])
	if a != b {
		t.Fatal("cone size not stable")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		in   []bool
		want MemberClass
		ok   bool
	}{
		{nil, ClassLocalOnly, false},
		{[]bool{false}, ClassLocalOnly, true},
		{[]bool{false, false}, ClassLocalOnly, true},
		{[]bool{true}, ClassRemoteOnly, true},
		{[]bool{true, true}, ClassRemoteOnly, true},
		{[]bool{true, false}, ClassHybrid, true},
	}
	for _, c := range cases {
		got, ok := Classify(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("Classify(%v) = (%v,%v), want (%v,%v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestMemberClassShares(t *testing.T) {
	// Paper: 63.7% local-only, 23.4% remote-only, 12.9% hybrid among
	// AS-peers of the 30 IXPs (ground-truth version here).
	w := world(t)
	counts := map[MemberClass]int{}
	tot := 0
	for _, asn := range w.ASNs {
		var rs []bool
		for _, m := range w.MembershipsOf(asn) {
			rs = append(rs, m.Remote())
		}
		if cls, ok := Classify(rs); ok {
			counts[cls]++
			tot++
		}
	}
	local := float64(counts[ClassLocalOnly]) / float64(tot)
	remote := float64(counts[ClassRemoteOnly]) / float64(tot)
	hybrid := float64(counts[ClassHybrid]) / float64(tot)
	t.Logf("member classes: local=%.3f remote=%.3f hybrid=%.3f (n=%d)", local, remote, hybrid, tot)
	if local < 0.45 || local > 0.80 {
		t.Errorf("local-only share %.2f, want ~0.64", local)
	}
	if remote < 0.10 || remote > 0.40 {
		t.Errorf("remote-only share %.2f, want ~0.23", remote)
	}
	if hybrid < 0.03 || hybrid > 0.30 {
		t.Errorf("hybrid share %.2f, want ~0.13", hybrid)
	}
}
