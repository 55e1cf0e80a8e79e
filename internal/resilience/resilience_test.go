package resilience

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

func TestAnalyzeFindsSharedPorts(t *testing.T) {
	w := world(t)
	a := Analyze(w)
	if len(a.SharedPorts) == 0 {
		t.Fatal("no shared reseller ports found")
	}
	for _, g := range a.SharedPorts {
		if len(g.Members) < 2 {
			t.Fatal("port group with fewer than 2 customers")
		}
		for _, m := range g.Members {
			if m.Kind != netsim.ConnReseller || m.Reseller != g.Reseller || m.IXP != g.IXP {
				t.Fatalf("member %+v does not belong to group (%v,%v)", m, g.Reseller, g.IXP)
			}
		}
		if g.MaxKm < 0 {
			t.Fatal("negative propagation distance")
		}
	}
}

func TestAnalyzeFindsMultiIXPRouters(t *testing.T) {
	w := world(t)
	a := Analyze(w)
	if len(a.MultiIXPRouters) == 0 {
		t.Fatal("no multi-IXP router failure domains")
	}
	for _, g := range a.MultiIXPRouters {
		if len(g.IXPs) < 2 {
			t.Fatal("router group spanning fewer than 2 IXPs")
		}
		seen := make(map[netsim.IXPID]bool)
		for _, m := range g.Members {
			if m.Router != g.Router {
				t.Fatal("member on wrong router")
			}
			seen[m.IXP] = true
		}
		if len(seen) != len(g.IXPs) {
			t.Fatal("IXP set inconsistent with memberships")
		}
	}
}

func TestSummaryShape(t *testing.T) {
	w := world(t)
	s := Analyze(w).Summarize()
	t.Logf("resilience: %+v", s)
	if s.SharedPorts == 0 || s.MultiIXPRouters == 0 {
		t.Fatal("empty summary")
	}
	if s.MeanCustomersPerPort < 2 {
		t.Errorf("mean customers per shared port = %.1f, want >= 2", s.MeanCustomersPerPort)
	}
	if s.MaxCustomersPerPort < int(s.MeanCustomersPerPort) {
		t.Error("max < mean")
	}
	// The paper's core resilience claim: outages do not stay local.
	if s.PortsReachingOver500Km == 0 {
		t.Error("no shared port reaches beyond 500 km; remote peering should propagate outages far")
	}
	if s.MaxIXPsPerRouter < 3 {
		t.Errorf("max IXPs per router = %d, want >= 3", s.MaxIXPsPerRouter)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	w := world(t)
	a := Analyze(w)
	b := Analyze(w)
	if len(a.SharedPorts) != len(b.SharedPorts) || len(a.MultiIXPRouters) != len(b.MultiIXPRouters) {
		t.Fatal("analysis not deterministic")
	}
	for i := range a.SharedPorts {
		if a.SharedPorts[i].Reseller != b.SharedPorts[i].Reseller ||
			a.SharedPorts[i].IXP != b.SharedPorts[i].IXP {
			t.Fatal("port group order not deterministic")
		}
	}
}
