package core

import (
	"math"
	"sync"
	"testing"

	"rpeer/internal/alias"
)

// coldContext builds a fresh Context over in: the cold reference that
// the shared-context tests compare against. Each call starts from an
// empty substrate, so no memo state carries over between calls.
func coldContext(t testing.TB, in Inputs) *Context {
	t.Helper()
	c, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// reportsEqual compares two reports field by field (NaN-aware on RTT).
func reportsEqual(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: inference counts differ: %d vs %d", label, a.Len(), b.Len())
	}
	for i, ia := range a.All() {
		ib := b.At(i)
		k := Key{IXP: ia.IXP, Iface: ia.Iface}
		if ib.IXP != k.IXP || ib.Iface != k.Iface {
			t.Fatalf("%s: row %d is %v in the first report, %s/%s in the second", label, i, k, ib.IXP, ib.Iface)
		}
		if ia.Class != ib.Class || ia.Step != ib.Step || ia.ASN != ib.ASN ||
			ia.FeasibleIXPFacilities != ib.FeasibleIXPFacilities || ia.TraceRTT != ib.TraceRTT {
			t.Fatalf("%s: %v differs: %+v vs %+v", label, k, ia, ib)
		}
		sameRTT := ia.RTTMinMs == ib.RTTMinMs || (math.IsNaN(ia.RTTMinMs) && math.IsNaN(ib.RTTMinMs))
		if !sameRTT {
			t.Fatalf("%s: %v RTT differs: %v vs %v", label, k, ia.RTTMinMs, ib.RTTMinMs)
		}
	}
	if len(a.MultiRouters) != len(b.MultiRouters) {
		t.Fatalf("%s: router counts differ: %d vs %d", label, len(a.MultiRouters), len(b.MultiRouters))
	}
	for i := range a.MultiRouters {
		ra, rb := a.MultiRouters[i], b.MultiRouters[i]
		if ra.ASN != rb.ASN || ra.Class != rb.Class ||
			len(ra.Ifaces) != len(rb.Ifaces) || len(ra.IXPs) != len(rb.IXPs) {
			t.Fatalf("%s: router %d differs: %+v vs %+v", label, i, ra, rb)
		}
		for j := range ra.Ifaces {
			if ra.Ifaces[j] != rb.Ifaces[j] {
				t.Fatalf("%s: router %d iface %d differs", label, i, j)
			}
		}
		for j := range ra.IXPs {
			if ra.IXPs[j] != rb.IXPs[j] {
				t.Fatalf("%s: router %d IXP %d differs", label, i, j)
			}
		}
	}
}

// optionVariants covers the knobs the ablation suite flips.
func optionVariants() map[string]Options {
	novmin := DefaultOptions()
	novmin.DisableVminBound = true
	coverage := DefaultOptions()
	coverage.AliasMode = alias.ModeCoverage
	trace := DefaultOptions()
	trace.UseTracerouteRTT = true
	noport := DefaultOptions()
	noport.Steps = []Step{StepRTTColo, StepMultiIXP, StepPrivate}
	return map[string]Options{
		"default":      DefaultOptions(),
		"no-vmin":      novmin,
		"coverage":     coverage,
		"beyond-pings": trace,
		"no-port":      noport,
	}
}

// TestSharedContextMatchesColdRun is the determinism contract of the
// shared-context API: a context reused across many runs (with warm
// alias/ring caches) must produce reports identical to a fresh
// context's first Run for every option set, and repeated shared runs
// must be self-identical.
func TestSharedContextMatchesColdRun(t *testing.T) {
	in, _, _ := fixtures(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range optionVariants() {
		cold, err := coldContext(t, in).Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		warm1, err := ctx.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		warm2, err := ctx.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, name+"/cold-vs-shared", cold, warm1)
		reportsEqual(t, name+"/shared-vs-shared", warm1, warm2)
	}
}

func TestSharedContextRunStepMatchesCold(t *testing.T) {
	in, _, _ := fixtures(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Step{StepPortCapacity, StepRTTColo, StepMultiIXP, StepPrivate} {
		cold, err := coldContext(t, in).RunStep(DefaultOptions(), s)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := ctx.RunStep(DefaultOptions(), s)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "step "+s.String(), cold, warm)
	}
}

func TestSharedContextStepOrderMatchesCold(t *testing.T) {
	in, _, _ := fixtures(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Steps = []Step{StepRTTColo, StepPortCapacity, StepMultiIXP, StepPrivate}
	cold, err := coldContext(t, in).Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ctx.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "ordered", cold, warm)
}

// TestRunRejectsNonPipelineSteps pins that Options.Steps names only
// pipeline steps: the baseline and the no-verdict marker fail the run
// wherever they appear, and an empty list runs nothing.
func TestRunRejectsNonPipelineSteps(t *testing.T) {
	in, _, _ := fixtures(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Step{StepBaseline, StepNone} {
		opt := DefaultOptions()
		opt.Steps = append(opt.Steps[:2:2], bad, StepPrivate)
		if rep, err := ctx.Run(opt); err == nil || rep != nil {
			t.Fatalf("Run with %v in Steps: rep = %v, err = %v; want an error", bad, rep, err)
		}
	}
	rep, err := ctx.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inf := range rep.All() {
		if inf.Class != ClassUnknown || inf.Step != StepNone {
			t.Fatalf("%s/%s: nil Steps decided %v by %v", inf.IXP, inf.Iface, inf.Class, inf.Step)
		}
	}
}

func TestSharedContextBaselineMatchesCold(t *testing.T) {
	in, _, _ := fixtures(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []float64{2, 10, 20} {
		cold, err := coldContext(t, in).Baseline(th)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := ctx.Baseline(th)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "baseline", cold, warm)
	}
}

// TestSharedContextConcurrentRuns exercises the context's concurrency
// contract: parallel runs over one context (as exp.All does) must each
// match the cold report — first runs racing to become the base, then
// incremental runs sharing one base after a delta, then both alias
// modes at once, whose router lists read the same per-member Step 4
// evidence.
func TestSharedContextConcurrentRuns(t *testing.T) {
	in := deltaInputs(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	concurrent := func(label string, opts ...Options) {
		t.Helper()
		cold := make([]*Report, len(opts))
		for i, opt := range opts {
			if cold[i], err = coldContext(t, ctx.Inputs()).Run(opt); err != nil {
				t.Fatal(err)
			}
		}
		const workers = 4
		reports := make([]*Report, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				reports[i], errs[i] = ctx.Run(opts[i%len(opts)])
			}(i)
		}
		wg.Wait()
		for i := 0; i < workers; i++ {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			reportsEqual(t, label, cold[i%len(opts)], reports[i])
		}
	}
	concurrent("concurrent", DefaultOptions())
	if err := ctx.Apply(churnDelta(t, ctx.Inputs(), 12, 12)); err != nil {
		t.Fatal(err)
	}
	inc, _ := ctx.IncrementalRuns()
	concurrent("concurrent after a delta", DefaultOptions())
	if now, _ := ctx.IncrementalRuns(); now < inc+4 {
		t.Fatalf("%d of 4 concurrent runs after a delta were incremental", now-inc)
	}
	coverage := DefaultOptions()
	coverage.AliasMode = alias.ModeCoverage
	if err := ctx.Apply(churnDelta(t, ctx.Inputs(), 12, 12)); err != nil {
		t.Fatal(err)
	}
	concurrent("both alias modes after a delta", DefaultOptions(), coverage)
}

func TestNewContextRequiresInputs(t *testing.T) {
	if _, err := NewContext(Inputs{}); err == nil {
		t.Error("want error for empty inputs")
	}
}

func BenchmarkContextBuild(b *testing.B) {
	in, _, _ := fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := NewContext(in)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = c
	}
}

// BenchmarkSharedContextRun is the warm-path counterpart of
// BenchmarkPipeline (which pays the cold context build every
// iteration).
func BenchmarkSharedContextRun(b *testing.B) {
	in, _, _ := fixtures(b)
	ctx, err := NewContext(in)
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	if _, err := ctx.Run(opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ctx.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = rep
	}
}

var benchSink interface{}
