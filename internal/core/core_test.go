package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"rpeer/internal/alias"
	"rpeer/internal/geo"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/registry"
	"rpeer/internal/tracesim"
)

var (
	cw   *netsim.World
	cin  Inputs
	crep *Report
	cval *Validation
)

func fixtures(t testing.TB) (Inputs, *Report, *Validation) {
	t.Helper()
	if cw == nil {
		w, err := netsim.Generate(netsim.DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cw = w
		ds := registry.Build(w, registry.DefaultNoise(), 42, 0)
		colo := registry.BuildColo(w, registry.DefaultColoNoise(), 42)
		vps := pingsim.DeriveVPs(w, 11)
		ping := pingsim.Run(w, vps, pingsim.DefaultCampaign(), 1)
		paths := tracesim.Generate(w, tracesim.DefaultConfig(), 0)
		cin = Inputs{
			World: w, Dataset: ds, Colo: colo, Ping: ping, Paths: paths,
			Speed: geo.DefaultSpeedModel(), Seed: 7, Alias: alias.NewProber(w, 7).Campaign(),
		}
		rep, err := coldContext(t, cin).Run(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		crep = rep
		cval = BuildValidation(w, DefaultValidationConfig())
	}
	return cin, crep, cval
}

// TestRunRequiresInputs: the pipeline entry refuses inputs that lack
// any one of World, Dataset, Colo or the alias probe campaign, not
// only wholly empty ones.
func TestRunRequiresInputs(t *testing.T) {
	in, _, _ := fixtures(t)
	for name, drop := range map[string]func(*Inputs){
		"all":     func(p *Inputs) { *p = Inputs{} },
		"World":   func(p *Inputs) { p.World = nil },
		"Dataset": func(p *Inputs) { p.Dataset = nil },
		"Colo":    func(p *Inputs) { p.Colo = nil },
		"Alias":   func(p *Inputs) { p.Alias = alias.Campaign{} },
	} {
		bad := in
		drop(&bad)
		if _, err := NewContext(bad); err == nil {
			t.Errorf("no %s: want error", name)
		}
	}
}

func TestPipelineCoversDataset(t *testing.T) {
	in, rep, _ := fixtures(t)
	if rep.Len() == 0 {
		t.Fatal("no inferences")
	}
	// Every dataset interface must be in the domain.
	if rep.Len() < len(in.Dataset.IfaceASN)*95/100 {
		t.Errorf("domain = %d of %d dataset interfaces", rep.Len(), len(in.Dataset.IfaceASN))
	}
}

func TestCombinedAccuracyShape(t *testing.T) {
	_, rep, val := fixtures(t)
	test := val.InIXPs(val.TestIXPs)
	m := Evaluate(rep, test)
	t.Logf("combined: COV=%.3f ACC=%.3f PRE=%.3f FPR=%.3f FNR=%.3f (VD=%d INF=%d)",
		m.COV, m.ACC, m.PRE, m.FPR, m.FNR, m.Validated, m.Inferred)
	// Paper Table 4 combined row: ~95% ACC/PRE, 93% COV, FPR 4%, FNR 7.2%.
	if m.COV < 0.80 {
		t.Errorf("COV = %.3f, want >= 0.80", m.COV)
	}
	if m.ACC < 0.88 {
		t.Errorf("ACC = %.3f, want >= 0.88", m.ACC)
	}
	if m.PRE < 0.85 {
		t.Errorf("PRE = %.3f, want >= 0.85", m.PRE)
	}
	if m.FPR > 0.12 {
		t.Errorf("FPR = %.3f, want <= 0.12", m.FPR)
	}
	if m.FNR > 0.15 {
		t.Errorf("FNR = %.3f, want <= 0.15", m.FNR)
	}
}

func TestBaselineWorseThanCombined(t *testing.T) {
	in, rep, val := fixtures(t)
	test := val.InIXPs(val.TestIXPs)
	base, err := coldContext(t, in).Baseline(DefaultBaselineThresholdMs)
	if err != nil {
		t.Fatal(err)
	}
	mb := Evaluate(base, test)
	mc := Evaluate(rep, test)
	t.Logf("baseline: COV=%.3f ACC=%.3f PRE=%.3f FPR=%.3f FNR=%.3f", mb.COV, mb.ACC, mb.PRE, mb.FPR, mb.FNR)
	if mb.ACC >= mc.ACC {
		t.Errorf("baseline ACC %.3f >= combined ACC %.3f", mb.ACC, mc.ACC)
	}
	if mb.FNR <= mc.FNR {
		t.Errorf("baseline FNR %.3f should exceed combined %.3f (close remotes fool the threshold)", mb.FNR, mc.FNR)
	}
}

// stepVerdicts is rep with every verdict another step decided turned
// unknown: Evaluate then scores the one step's inferences (the
// per-step rows of Table 4).
func stepVerdicts(rep *Report, s Step) *Report {
	v := *rep.cols()
	v.class = slices.Clone(v.class)
	for i, st := range v.step {
		if st != s {
			v.class[i] = ClassUnknown
		}
	}
	return &Report{v: &v}
}

func TestStepPortCapacityPrecision(t *testing.T) {
	_, rep, val := fixtures(t)
	test := val.InIXPs(val.TestIXPs)
	m := Evaluate(stepVerdicts(rep, StepPortCapacity), test)
	t.Logf("step1: PRE=%.3f COV=%.3f inferred=%d", m.PRE, m.COV, m.Inferred)
	// Table 4: 96% precision, ~11% coverage; it infers only remotes.
	if m.Inferred == 0 {
		t.Fatal("step 1 made no inferences")
	}
	if m.PRE < 0.90 {
		t.Errorf("step-1 PRE = %.3f, want >= 0.90", m.PRE)
	}
	if m.COV < 0.02 || m.COV > 0.35 {
		t.Errorf("step-1 COV = %.3f, want small-but-nonzero (~0.11)", m.COV)
	}
}

func TestStepRTTColoQuality(t *testing.T) {
	_, rep, val := fixtures(t)
	test := val.InIXPs(val.TestIXPs)
	m := Evaluate(stepVerdicts(rep, StepRTTColo), test)
	t.Logf("step2+3: ACC=%.3f PRE=%.3f COV=%.3f FPR=%.3f FNR=%.3f", m.ACC, m.PRE, m.COV, m.FPR, m.FNR)
	if m.Inferred == 0 {
		t.Fatal("steps 2+3 made no inferences")
	}
	if m.ACC < 0.88 {
		t.Errorf("step-2+3 ACC = %.3f, want >= 0.88", m.ACC)
	}
}

func TestStepsFillCoverage(t *testing.T) {
	_, rep, _ := fixtures(t)
	counts := make(map[Step]int)
	for _, inf := range rep.All() {
		if inf.Class != ClassUnknown {
			counts[inf.Step]++
		}
	}
	t.Logf("step contributions: %v", counts)
	for _, s := range []Step{StepPortCapacity, StepRTTColo} {
		if counts[s] == 0 {
			t.Errorf("step %v contributed nothing", s)
		}
	}
	if counts[StepMultiIXP]+counts[StepPrivate] == 0 {
		t.Error("steps 4+5 contributed nothing")
	}
}

func TestMultiIXPRoutersReported(t *testing.T) {
	_, rep, _ := fixtures(t)
	if len(rep.MultiRouters) == 0 {
		t.Fatal("no multi-IXP routers found")
	}
	classes := make(map[RouterClass]int)
	for _, r := range rep.MultiRouters {
		if len(r.IXPs) < 2 {
			t.Fatalf("multi-IXP router with %d IXPs", len(r.IXPs))
		}
		classes[r.Class]++
	}
	t.Logf("router classes: %v (total %d)", classes, len(rep.MultiRouters))
	if classes[RouterRemote] == 0 {
		t.Error("no remote multi-IXP routers (Fig 9d expects them to dominate)")
	}
}

func TestRemoteShareInTheWild(t *testing.T) {
	_, rep, _ := fixtures(t)
	var remote, decided int
	for _, inf := range rep.All() {
		switch inf.Class {
		case ClassRemote:
			remote++
			decided++
		case ClassLocal:
			decided++
		}
	}
	share := float64(remote) / float64(decided)
	t.Logf("wild remote share = %.3f (decided %d of %d)", share, decided, rep.Len())
	// Paper: 28% of inferred interfaces are remote.
	if share < 0.18 || share > 0.40 {
		t.Errorf("remote share = %.3f, want ~0.28", share)
	}
	if frac := float64(decided) / float64(rep.Len()); frac < 0.75 {
		t.Errorf("decided fraction = %.3f, want >= 0.75", frac)
	}
}

func TestEvaluateMetricIdentities(t *testing.T) {
	_, rep, val := fixtures(t)
	m := Evaluate(rep, val)
	if m.TruePosR+m.TruePosL+m.FalsePos+m.FalseNeg != m.Inferred {
		t.Error("confusion counts do not sum to inferred")
	}
	if m.ACC < 0 || m.ACC > 1 || m.COV < 0 || m.COV > 1 {
		t.Error("metrics out of [0,1]")
	}
	// ACC identity: ACC * Inferred == TP_R + TP_L.
	if got := m.ACC * float64(m.Inferred); math.Abs(got-float64(m.TruePosR+m.TruePosL)) > 1e-6 {
		t.Error("ACC identity violated")
	}
}

func TestValidationDisjointSets(t *testing.T) {
	_, _, val := fixtures(t)
	for k := range val.Remote {
		if val.Local[k] {
			t.Fatalf("interface %v in both VDR and VDL", k)
		}
	}
	if len(val.ControlIXPs) == 0 || len(val.TestIXPs) == 0 {
		t.Fatal("control/test split empty")
	}
	for _, c := range val.ControlIXPs {
		for _, x := range val.TestIXPs {
			if c == x {
				t.Fatalf("IXP %s in both control and test", c)
			}
		}
	}
}

func TestBaselineOnlyMeasured(t *testing.T) {
	in, _, _ := fixtures(t)
	base, err := coldContext(t, in).Baseline(DefaultBaselineThresholdMs)
	if err != nil {
		t.Fatal(err)
	}
	for _, inf := range base.All() {
		if inf.Class != ClassUnknown && !inf.HasRTT() {
			t.Fatal("baseline inferred an unmeasured interface")
		}
	}
}

func BenchmarkPipeline(b *testing.B) {
	in, _, _ := fixtures(b)
	opt := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coldContext(b, in).Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBeyondPingsIncreasesCoverage(t *testing.T) {
	in, rep, val := fixtures(t)
	opt := DefaultOptions()
	opt.UseTracerouteRTT = true
	ext, err := coldContext(t, in).Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if ext.TraceDerived() == 0 {
		t.Fatal("no traceroute-derived RTTs used")
	}
	baseMeasured, extMeasured := 0, 0
	for _, inf := range rep.All() {
		if inf.HasRTT() {
			baseMeasured++
		}
		if e, ok := ext.Lookup(Key{IXP: inf.IXP, Iface: inf.Iface}); ok && e.HasRTT() {
			extMeasured++
		}
	}
	if extMeasured <= baseMeasured {
		t.Errorf("beyond-pings measured %d interfaces, ping-only %d; want more", extMeasured, baseMeasured)
	}
	m := Evaluate(ext, val.InIXPs(val.TestIXPs))
	mb := Evaluate(rep, val.InIXPs(val.TestIXPs))
	t.Logf("beyond pings: COV=%.3f ACC=%.3f (ping-only COV=%.3f ACC=%.3f), trace-derived ifaces=%d",
		m.COV, m.ACC, mb.COV, mb.ACC, ext.TraceDerived())
	if m.COV < mb.COV-0.01 {
		t.Errorf("beyond-pings COV %.3f dropped below ping-only %.3f", m.COV, mb.COV)
	}
	if m.ACC < mb.ACC-0.08 {
		t.Errorf("beyond-pings ACC %.3f collapsed vs ping-only %.3f", m.ACC, mb.ACC)
	}
}

func TestDeriveTracerouteRTTPositive(t *testing.T) {
	in, _, _ := fixtures(t)
	ests := DeriveTracerouteRTT(&in.Paths, newContext(in).corpus.Crossings())
	if len(ests) < 1000 {
		t.Fatalf("only %d traceroute RTT estimates", len(ests))
	}
	for _, e := range ests {
		if e.RTTMs <= 0 || math.IsNaN(e.RTTMs) || math.IsInf(e.RTTMs, 0) {
			t.Fatalf("bad estimate %+v", e)
		}
		if e.Samples < 1 {
			t.Fatalf("estimate without samples: %+v", e)
		}
	}
}

func TestTracerouteRTTAgreesWithPing(t *testing.T) {
	// Where both measurements exist, the traceroute-derived estimate
	// should track the ping minimum (Fig 12b's premise): compare
	// medians of the two distributions over common interfaces.
	in, _, _ := fixtures(t)
	ctx := newContext(in)
	p := ctx.newPipeline(DefaultOptions())
	var pings, traces []float64
	for _, e := range DeriveTracerouteRTT(&in.Paths, ctx.corpus.Crossings()) {
		if id, ok := ctx.ids.Iface(e.Iface); ok && int(id) < len(p.rtt) && !math.IsNaN(p.rtt[id]) {
			pings = append(pings, p.rtt[id])
			traces = append(traces, e.RTTMs)
		}
	}
	if len(pings) < 500 {
		t.Fatalf("only %d common interfaces", len(pings))
	}
	med := func(v []float64) float64 {
		c := append([]float64(nil), v...)
		sort.Float64s(c)
		return c[len(c)/2]
	}
	mp, mt := med(pings), med(traces)
	t.Logf("median ping %.2fms vs traceroute-derived %.2fms over %d ifaces", mp, mt, len(pings))
	if mt > mp*3+5 || mp > mt*3+5 {
		t.Errorf("medians diverge: ping %.2f vs traceroute %.2f", mp, mt)
	}
}
