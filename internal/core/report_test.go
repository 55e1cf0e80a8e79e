package core

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
)

// TestLiteralReportMatchesColumns: a hand-built report, the literal
// map form, reads exactly like the context report its rows came from
// once the accessors normalize it — the same rows in the same order,
// the same IXP ranges and lookups, the same diff — and goroutines
// reading it at once normalize it once, race-free.
func TestLiteralReportMatchesColumns(t *testing.T) {
	_, rep, _ := fixtures(t)
	m := make(map[Key]*Inference, rep.Len())
	for _, inf := range rep.All() {
		// The key, not the value, names the membership.
		m[Key{IXP: inf.IXP, Iface: inf.Iface}] = &Inference{
			ASN: inf.ASN, Class: inf.Class, Step: inf.Step, RTTMinMs: inf.RTTMinMs,
			FeasibleIXPFacilities: inf.FeasibleIXPFacilities, TraceRTT: inf.TraceRTT,
		}
	}
	lit := &Report{Inferences: m, MultiRouters: rep.MultiRouters}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < rep.Len(); i += 4 {
				want := rep.At(i)
				if got, ok := lit.Lookup(Key{IXP: want.IXP, Iface: want.Iface}); !ok || got.Class != want.Class || got.ASN != want.ASN {
					t.Errorf("literal Lookup of row %d: %+v, %v; want %+v", i, got, ok, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	reportsEqual(t, "literal", rep, lit)
	for _, name := range []string{rep.At(0).IXP, rep.At(rep.Len() - 1).IXP, "no-such-ixp"} {
		lo, hi := rep.IXPRange(name)
		llo, lhi := lit.IXPRange(name)
		if lhi-llo != hi-lo || (hi > lo && llo != lo) {
			t.Fatalf("IXPRange(%q): literal [%d, %d), context [%d, %d)", name, llo, lhi, lo, hi)
		}
	}
	if _, ok := lit.Lookup(Key{IXP: rep.At(0).IXP, Iface: netip.MustParseAddr("192.0.2.1")}); ok {
		t.Fatal("literal Lookup found a membership the report does not hold")
	}
	DiffVerdicts(rep, lit, func(k Key, o, n *Inference) {
		t.Fatalf("%v differs between a report and its literal copy: %+v vs %+v", k, o, n)
	})
	if got := fmt.Sprint(lit.StepShare()); got != fmt.Sprint(rep.StepShare()) {
		t.Fatalf("StepShare differs:\n%s\nwant\n%s", got, fmt.Sprint(rep.StepShare()))
	}
}
