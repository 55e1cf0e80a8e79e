package pingsim

import (
	"math"
	"net/netip"
	"sync"
	"testing"

	"rpeer/internal/netsim"
)

func overrideFixtures(t testing.TB) (*netsim.World, []*VP, *Result) {
	t.Helper()
	w, err := netsim.Generate(netsim.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	vps := DeriveVPs(w, 11)
	return w, vps, Run(w, vps, DefaultCampaign(), 1)
}

func TestWithOverridesReplacesAndRemoves(t *testing.T) {
	_, _, res := overrideFixtures(t)
	base := res.IfaceIndex()
	if len(base) == 0 {
		t.Fatal("campaign measured nothing")
	}
	// Pick two measured interfaces: one to replace, one to drop.
	var replace, drop netip.Addr
	for ip := range base {
		if !replace.IsValid() {
			replace = ip
			continue
		}
		drop = ip
		break
	}
	vp := base[replace].BestVP
	ov := map[netip.Addr]IfaceAgg{
		replace: {RTTMinMs: 123.5, BestVP: vp, BestRoundsUp: true, AnyRounding: true},
		drop:    {RTTMinMs: math.NaN()},
	}
	view := res.WithOverrides(ov)
	idx := view.IfaceIndex()
	if got := idx[replace]; got == nil || got.RTTMinMs != 123.5 || !got.BestRoundsUp {
		t.Fatalf("override not applied: %+v", idx[replace])
	}
	if idx[drop] != nil {
		t.Fatal("NaN override did not remove the interface")
	}
	if len(idx) != len(base)-1 {
		t.Fatalf("index size %d, want %d", len(idx), len(base)-1)
	}
	// The receiver stays frozen.
	if got := res.IfaceIndex()[replace]; got.RTTMinMs == 123.5 {
		t.Fatal("WithOverrides mutated the receiver")
	}
	// Stacked overrides: the latest wins, removal is reversible.
	view2 := view.WithOverrides(map[netip.Addr]IfaceAgg{
		replace: {RTTMinMs: 7.25, BestVP: vp},
		drop:    {RTTMinMs: 1.0, BestVP: vp},
	})
	idx2 := view2.IfaceIndex()
	if idx2[replace].RTTMinMs != 7.25 || idx2[drop].RTTMinMs != 1.0 {
		t.Fatalf("stacked overrides wrong: %+v %+v", idx2[replace], idx2[drop])
	}
}

// TestOverridesFromRecampaign checks the re-campaign fold: a second
// campaign's usable aggregates replace the originals, everything else
// keeps the first campaign's values.
func TestOverridesFromRecampaign(t *testing.T) {
	w, vps, res := overrideFixtures(t)
	cfg := DefaultCampaign()
	cfg.Seed = 99
	refresh := Run(w, vps, cfg, 1)

	merged := res.WithOverrides(Overrides(refresh)).IfaceIndex()
	ridx := refresh.IfaceIndex()
	bidx := res.IfaceIndex()
	if len(ridx) == 0 {
		t.Fatal("refresh measured nothing")
	}
	for ip, a := range merged {
		if ra, ok := ridx[ip]; ok {
			if a.RTTMinMs != ra.RTTMinMs || a.BestVP != ra.BestVP {
				t.Fatalf("refreshed iface %v kept stale aggregate", ip)
			}
			continue
		}
		if ba := bidx[ip]; ba == nil || a.RTTMinMs != ba.RTTMinMs {
			t.Fatalf("unrefreshed iface %v lost its base aggregate", ip)
		}
	}
	for ip := range bidx {
		if _, ok := merged[ip]; !ok {
			t.Fatalf("iface %v vanished from the merged view", ip)
		}
	}
}

// TestVPIndexSharedAcrossViews: the VP-by-ID index is built once per
// campaign, shared by every WithOverrides view, and safe to query from
// several goroutines while views are being made (run under -race).
func TestVPIndexSharedAcrossViews(t *testing.T) {
	w, vps, _ := overrideFixtures(t)
	res := Run(w, vps, DefaultCampaign(), 1) // fresh: index not built yet
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := res.WithOverrides(nil)
			for _, vp := range vps {
				if got, ok := view.VP(vp.ID); !ok || got != vp {
					t.Errorf("view.VP(%d) = %v, %v", vp.ID, got, ok)
					return
				}
				if got, ok := res.VP(vp.ID); !ok || got != vp {
					t.Errorf("res.VP(%d) = %v, %v", vp.ID, got, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, ok := res.VP(-1); ok {
		t.Fatal("unknown VP ID resolved")
	}
	if _, ok := (*Result)(nil).VP(vps[0].ID); ok {
		t.Fatal("nil campaign resolved a VP")
	}
}
