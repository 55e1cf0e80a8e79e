package evolve

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

func trackedIXPs(w *netsim.World) []netsim.IXPID {
	var ids []netsim.IXPID
	for _, ix := range w.LargestIXPs(5) {
		ids = append(ids, ix.ID)
	}
	return ids
}

func TestSimulateGrowthTwiceLocal(t *testing.T) {
	w := world(t)
	s := Simulate(w, trackedIXPs(w), DefaultConfig())
	if len(s.Months) != DefaultConfig().Months {
		t.Fatalf("months = %d", len(s.Months))
	}
	l, r := s.GrowthRates()
	if l <= 0 || r <= 0 {
		t.Fatal("no growth")
	}
	ratio := r / l
	t.Logf("growth: local=%.2f/mo remote=%.2f/mo ratio=%.2f", l, r, ratio)
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("remote/local growth ratio = %.2f, want ~2.0", ratio)
	}
}

func TestDepartureRatesHigherForRemote(t *testing.T) {
	w := world(t)
	cfg := DefaultConfig()
	cfg.Months = 48 // longer window for a stable estimate
	s := Simulate(w, trackedIXPs(w), cfg)
	lr, rr := s.DepartureRates()
	if lr <= 0 || rr <= 0 {
		t.Fatal("no departures observed")
	}
	ratio := rr / lr
	t.Logf("departures: local=%.4f remote=%.4f ratio=%.2f", lr, rr, ratio)
	// Paper: +25% higher departure rate for remote peers.
	if ratio < 1.02 || ratio > 1.6 {
		t.Errorf("departure ratio = %.2f, want ~1.25", ratio)
	}
}

func TestSwitchesObserved(t *testing.T) {
	w := world(t)
	s := Simulate(w, trackedIXPs(w), DefaultConfig())
	// Paper: 18 remote-to-local switches over the window.
	if got := s.Switches(); got < 5 || got > 40 {
		t.Errorf("switches = %d, want ~18", got)
	}
}

func TestTotalsConsistent(t *testing.T) {
	w := world(t)
	cfg := DefaultConfig()
	s := Simulate(w, trackedIXPs(w), cfg)
	var local, remote int
	for _, id := range trackedIXPs(w) {
		for _, m := range w.MembersOf(id) {
			if m.Remote() {
				remote++
			} else {
				local++
			}
		}
	}
	for _, m := range s.Months {
		local += m.NewLocal - m.GoneLocal + m.Switched
		remote += m.NewRemote - m.GoneRemote - m.Switched
		if m.TotalLocal != local || m.TotalRemote != remote {
			t.Fatalf("month %d totals inconsistent: have (%d,%d), want (%d,%d)",
				m.Month, m.TotalLocal, m.TotalRemote, local, remote)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	w := world(t)
	a := Simulate(w, trackedIXPs(w), DefaultConfig())
	b := Simulate(w, trackedIXPs(w), DefaultConfig())
	for i := range a.Months {
		if a.Months[i] != b.Months[i] {
			t.Fatalf("month %d differs", i)
		}
	}
}

func TestZeroMonths(t *testing.T) {
	w := world(t)
	cfg := DefaultConfig()
	cfg.Months = 0
	s := Simulate(w, trackedIXPs(w), cfg)
	if len(s.Months) != 0 {
		t.Fatal("expected empty series")
	}
	l, r := s.GrowthRates()
	if l != 0 || r != 0 {
		t.Fatal("rates on empty series should be zero")
	}
}

func TestRemoteSharesGrow(t *testing.T) {
	w := world(t)
	cfg := DefaultConfig()
	cfg.Months = 36
	s := Simulate(w, trackedIXPs(w), cfg)
	shares := s.RemoteShares()
	if len(shares) != 36 {
		t.Fatalf("shares = %d months", len(shares))
	}
	for _, v := range shares {
		if v < 0 || v > 1 {
			t.Fatalf("share %v out of range", v)
		}
	}
	// Remote joins outpace local joins 2:1, so the share must trend up.
	if shares[len(shares)-1] <= shares[0] {
		t.Errorf("remote share did not grow: %.3f -> %.3f", shares[0], shares[len(shares)-1])
	}
}
