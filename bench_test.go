// Package rpeer holds the repository-level benchmark harness: one
// benchmark per table and figure of the paper's evaluation (each
// regenerates the artefact from the shared experiment environment and
// reports the headline metric), plus the design-choice ablations
// called out in DESIGN.md section 6.
//
// Run with:
//
//	go test -bench=. -benchmem
package rpeer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpeer/internal/admission"
	"rpeer/internal/alias"
	"rpeer/internal/core"
	"rpeer/internal/exp"
	"rpeer/internal/host"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/tracesim"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
	"rpeer/pkg/rpi/serve"
)

var (
	benchOnce  sync.Once
	benchedEnv *exp.Env
	benchErr   error
	sink       interface{}
)

func benchEnv(b *testing.B) *exp.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchedEnv, benchErr = exp.NewEnv(1)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchedEnv
}

// run executes one experiment constructor per iteration.
func run(b *testing.B, f func(*exp.Env) exp.Result) {
	e := benchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	var r exp.Result
	for i := 0; i < b.N; i++ {
		r = f(e)
	}
	sink = r
}

// ---------------------------------------------------------------------------
// Tables

func BenchmarkTable1DatasetMerge(b *testing.B) { run(b, exp.Table1) }
func BenchmarkTable2Validation(b *testing.B)   { run(b, exp.Table2) }
func BenchmarkTable5PingCampaign(b *testing.B) { run(b, exp.Table5) }

func BenchmarkTable4StepValidation(b *testing.B) {
	e := benchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	var m core.Metrics
	for i := 0; i < b.N; i++ {
		sink = exp.Table4(e)
		m = core.Evaluate(e.Report, e.TestSubset())
	}
	b.ReportMetric(100*m.ACC, "ACC%")
	b.ReportMetric(100*m.COV, "COV%")
	b.ReportMetric(100*m.PRE, "PRE%")
}

// ---------------------------------------------------------------------------
// Figures

func BenchmarkFig1aFacilityDistribution(b *testing.B) { run(b, exp.Fig1a) }
func BenchmarkFig1bControlRTTECDF(b *testing.B)       { run(b, exp.Fig1b) }
func BenchmarkFig2aWideAreaRTTMatrix(b *testing.B)    { run(b, exp.Fig2a) }
func BenchmarkFig2bWideAreaPrevalence(b *testing.B)   { run(b, exp.Fig2b) }
func BenchmarkFig4PortCapacities(b *testing.B)        { run(b, exp.Fig4) }
func BenchmarkFig5FacilityPresence(b *testing.B)      { run(b, exp.Fig5) }
func BenchmarkFig6SpeedFit(b *testing.B)              { run(b, exp.Fig6) }
func BenchmarkFig8PerIXPValidation(b *testing.B)      { run(b, exp.Fig8) }
func BenchmarkFig9aResponseRates(b *testing.B)        { run(b, exp.Fig9a) }
func BenchmarkFig9bRTTECDF(b *testing.B)              { run(b, exp.Fig9b) }
func BenchmarkFig9cFeasibleFacilities(b *testing.B)   { run(b, exp.Fig9c) }
func BenchmarkFig9dMultiIXPRouters(b *testing.B)      { run(b, exp.Fig9d) }
func BenchmarkFig10aStepContribution(b *testing.B)    { run(b, exp.Fig10a) }
func BenchmarkFig10bInferenceShares(b *testing.B)     { run(b, exp.Fig10b) }
func BenchmarkFig11aCustomerCones(b *testing.B)       { run(b, exp.Fig11a) }
func BenchmarkFig11bTrafficLevels(b *testing.B)       { run(b, exp.Fig11b) }
func BenchmarkFig12aGrowth(b *testing.B)              { run(b, exp.Fig12a) }
func BenchmarkFig12bPingVsTraceroute(b *testing.B)    { run(b, exp.Fig12b) }
func BenchmarkSec64RoutingImplications(b *testing.B)  { run(b, exp.Sec64) }

// ---------------------------------------------------------------------------
// End-to-end pipeline stages

func BenchmarkWorldGeneration(b *testing.B) {
	cfg := netsim.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := netsim.Generate(cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		sink = w
	}
}

func BenchmarkPingCampaign(b *testing.B) {
	e := benchEnv(b)
	cfg := pingsim.DefaultCampaign()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = pingsim.Run(e.World, e.VPs, cfg, 1)
	}
}

func BenchmarkTracerouteCorpus(b *testing.B) {
	e := benchEnv(b)
	cfg := tracesim.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = tracesim.Generate(e.World, cfg, 0)
	}
}

func BenchmarkFullPipeline(b *testing.B) {
	e := benchEnv(b)
	opt := core.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Ctx.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		sink = rep
	}
}

// BenchmarkContextBuild prices the one-off substrate construction the
// shared runs amortise.
func BenchmarkContextBuild(b *testing.B) {
	e := benchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := core.NewContext(e.Inputs)
		if err != nil {
			b.Fatal(err)
		}
		sink = c
	}
}

// BenchmarkColdFirstRun prices a fresh context's first pipeline run:
// the run that probes the alias plane and fills the alias, ring and
// Step 4 memos. The context build runs outside the timer, so the rung
// isolates the stage between BenchmarkContextBuild and the warm
// BenchmarkFullPipeline.
func BenchmarkColdFirstRun(b *testing.B) {
	for _, factor := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dx", factor), func(b *testing.B) {
			e := benchScaledEnv(b, factor)
			opt := core.DefaultOptions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ctx, err := core.NewContext(e.Inputs)
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC() // don't bill the build's garbage to the run
				b.StartTimer()
				rep, err := ctx.Run(opt)
				if err != nil {
					b.Fatal(err)
				}
				sink = rep
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md section 6)

// ablate runs the pipeline under modified options and reports accuracy
// and coverage against the test subset.
func ablate(b *testing.B, opt core.Options) {
	e := benchEnv(b)
	test := e.TestSubset()
	b.ResetTimer()
	var m core.Metrics
	for i := 0; i < b.N; i++ {
		rep, err := e.Ctx.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		m = core.Evaluate(rep, test)
		sink = rep
	}
	b.ReportMetric(100*m.ACC, "ACC%")
	b.ReportMetric(100*m.COV, "COV%")
	b.ReportMetric(100*m.FPR, "FPR%")
}

func BenchmarkAblationBaselinePipeline(b *testing.B) {
	ablate(b, core.DefaultOptions())
}

func BenchmarkAblationNoVmin(b *testing.B) {
	opt := core.DefaultOptions()
	opt.DisableVminBound = true
	ablate(b, opt)
}

func BenchmarkAblationAliasCoverageMode(b *testing.B) {
	opt := core.DefaultOptions()
	opt.AliasMode = alias.ModeCoverage
	ablate(b, opt)
}

func BenchmarkAblationNoPortCapacity(b *testing.B) {
	opt := core.DefaultOptions()
	opt.Steps = []core.Step{core.StepRTTColo, core.StepMultiIXP, core.StepPrivate}
	ablate(b, opt)
}

func BenchmarkAblationNoPrivateLinks(b *testing.B) {
	opt := core.DefaultOptions()
	opt.Steps = []core.Step{core.StepPortCapacity, core.StepRTTColo, core.StepMultiIXP}
	ablate(b, opt)
}

func BenchmarkAblationStepOrder(b *testing.B) {
	// RTT+colo before port capacity: the paper argues port capacity
	// must run first because it is the more reliable signal for
	// colocated reseller customers.
	e := benchEnv(b)
	test := e.TestSubset()
	opt := core.DefaultOptions()
	opt.Steps = []core.Step{core.StepRTTColo, core.StepPortCapacity, core.StepMultiIXP, core.StepPrivate}
	b.ResetTimer()
	var m core.Metrics
	for i := 0; i < b.N; i++ {
		rep, err := e.Ctx.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		m = core.Evaluate(rep, test)
		sink = rep
	}
	b.ReportMetric(100*m.ACC, "ACC%")
	b.ReportMetric(100*m.FNR, "FNR%")
}

func BenchmarkAblationNoTTLFilters(b *testing.B) {
	e := benchEnv(b)
	test := e.TestSubset()
	cfg := pingsim.DefaultCampaign()
	cfg.Seed = 5
	cfg.DisableTTLFilters = true
	ping := pingsim.Run(e.World, e.VPs, cfg, 1)
	in := e.Inputs
	in.Ping = ping
	ctx, err := core.NewContext(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var m core.Metrics
	for i := 0; i < b.N; i++ {
		rep, err := ctx.Run(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		m = core.Evaluate(rep, test)
		sink = rep
	}
	b.ReportMetric(100*m.ACC, "ACC%")
	b.ReportMetric(100*m.FPR, "FPR%")
}

func BenchmarkAblationBaselineThreshold(b *testing.B) {
	e := benchEnv(b)
	test := e.TestSubset()
	for _, th := range []float64{2, 5, 10, 20} {
		th := th
		b.Run(thName(th), func(b *testing.B) {
			var m core.Metrics
			for i := 0; i < b.N; i++ {
				rep, err := e.Ctx.Baseline(th)
				if err != nil {
					b.Fatal(err)
				}
				m = core.Evaluate(rep, test)
				sink = rep
			}
			b.ReportMetric(100*m.ACC, "ACC%")
			b.ReportMetric(100*m.FPR, "FPR%")
			b.ReportMetric(100*m.FNR, "FNR%")
		})
	}
}

func thName(th float64) string {
	switch th {
	case 2:
		return "2ms"
	case 5:
		return "5ms"
	case 10:
		return "10ms"
	default:
		return "20ms"
	}
}

func BenchmarkExtensionBeyondPings(b *testing.B) {
	opt := core.DefaultOptions()
	opt.UseTracerouteRTT = true
	ablate(b, opt)
}

func BenchmarkExtensionLongitudinal(b *testing.B) {
	run(b, exp.Sec8Longitudinal)
}

func BenchmarkParallelPingCampaign(b *testing.B) {
	e := benchEnv(b)
	cfg := pingsim.DefaultCampaign()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = pingsim.Run(e.World, e.VPs, cfg, 0)
	}
}

func BenchmarkSec7Resilience(b *testing.B) {
	run(b, exp.Sec7)
}

// ---------------------------------------------------------------------------
// Whole-suite regeneration: all 26 artefacts, serial vs worker pool.

func BenchmarkAllArtefactsSerial(b *testing.B) {
	e := benchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = exp.All(e, 1)
	}
}

func BenchmarkAllArtefactsParallel(b *testing.B) {
	e := benchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = exp.All(e, 0)
	}
}

// ---------------------------------------------------------------------------
// Scaling suite: the same measurements at growing world sizes
// (netsim.ScaledConfig presets), so BENCH_*.json tracks how the system
// scales with the world — not just how fast the default world runs.
// Every sub-benchmark reports the domain size (inferences/op), making
// the growth curve visible next to the timings.

var (
	scaleMu   sync.Mutex
	scaleEnvs = map[int]*exp.Env{}
)

func benchScaledEnv(b *testing.B, factor int) *exp.Env {
	b.Helper()
	scaleMu.Lock()
	defer scaleMu.Unlock()
	e, ok := scaleEnvs[factor]
	if !ok {
		var err error
		e, err = exp.NewEnvWithConfig(netsim.ScaledConfig(factor), 1)
		if err != nil {
			b.Fatal(err)
		}
		scaleEnvs[factor] = e
	}
	return e
}

// ---------------------------------------------------------------------------
// Engine: incremental re-inference vs full rebuild, and the HTTP front
// end (PR 3). The incremental/rebuild pair is the headline claim of
// the engine API: absorbing a 1% membership churn through
// Engine.Apply must beat building a cold engine over the post-delta
// inputs by a wide margin, because only the membership-dependent
// substrate is re-derived.

// warmApply applies one forward/inverse pair before the timer starts,
// so the one-time growth the first apply pays (the alias probe plane
// sized for newly interned interfaces) stays out of B/op, which then
// does not depend on the iteration count.
func warmApply(b *testing.B, eng *rpi.Engine, fwd, rev rpi.Delta) {
	b.Helper()
	for _, d := range []rpi.Delta{fwd, rev} {
		if _, err := eng.Apply(context.Background(), d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineApply(b *testing.B) {
	for _, factor := range []int{1, 4, 16} {
		factor := factor
		b.Run(fmt.Sprintf("%dx", factor), func(b *testing.B) {
			e := benchScaledEnv(b, factor)
			b.Run("incremental", func(b *testing.B) {
				eng, err := rpi.New(e.Inputs)
				if err != nil {
					b.Fatal(err)
				}
				fwd := rpi.ChurnDelta(eng.Inputs(), 0.01, 97)
				rev := rpi.InvertDelta(eng.Inputs(), fwd)
				warmApply(b, eng, fwd, rev)
				b.ReportAllocs()
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d := fwd
					if i%2 == 1 {
						d = rev
					}
					up, err := eng.Apply(context.Background(), d)
					if err != nil {
						b.Fatal(err)
					}
					sink = up
				}
				b.ReportMetric(float64(eng.Snapshot().Len()), "inferences/op")
				b.ReportMetric(float64(len(fwd.Joins)+len(fwd.Leaves)), "churn/op")
			})
			b.Run("rtt", func(b *testing.B) {
				eng, err := rpi.New(e.Inputs)
				if err != nil {
					b.Fatal(err)
				}
				fwd, rev := rttRefreshPair(eng.Inputs(), 0.01, 97)
				warmApply(b, eng, fwd, rev)
				b.ReportAllocs()
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d := fwd
					if i%2 == 1 {
						d = rev
					}
					up, err := eng.Apply(context.Background(), d)
					if err != nil {
						b.Fatal(err)
					}
					sink = up
				}
				b.ReportMetric(float64(len(fwd.Ping)), "refreshed/op")
			})
			b.Run("rebuild", func(b *testing.B) {
				eng, err := rpi.New(e.Inputs)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Apply(context.Background(), rpi.ChurnDelta(eng.Inputs(), 0.01, 97)); err != nil {
					b.Fatal(err)
				}
				post := eng.Inputs() // the post-delta world a cold engine must ingest
				b.ReportAllocs()
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cold, err := rpi.New(post)
					if err != nil {
						b.Fatal(err)
					}
					sink = cold.Snapshot()
				}
				b.ReportMetric(float64(eng.Snapshot().Len()), "inferences/op")
			})
		})
	}
}

// rttRefreshPair builds a forward/reverse pair of RTT refreshes over
// frac of the measured membership interfaces, sampled deterministically
// in seed: the forward delta moves each sampled minimum (every fifth
// one to a revocation), and the reverse restores the aggregate each
// had.
func rttRefreshPair(in rpi.Inputs, frac float64, seed int64) (fwd, rev rpi.Delta) {
	idx := in.Ping.IfaceIndex()
	measured := make([]netip.Addr, 0, len(idx))
	for ip, a := range idx {
		if _, ok := in.Dataset.IfaceIXP[ip]; ok && a.BestVP != nil {
			measured = append(measured, ip)
		}
	}
	sort.Slice(measured, func(i, j int) bool { return measured[i].Less(measured[j]) })
	n := max(1, int(frac*float64(len(measured))))
	fwd.Ping = make(map[netip.Addr]pingsim.IfaceAgg, n)
	rev.Ping = make(map[netip.Addr]pingsim.IfaceAgg, n)
	for k, i := range rand.New(rand.NewSource(seed)).Perm(len(measured))[:n] {
		ip := measured[i]
		a := *idx[ip]
		rev.Ping[ip] = a
		if k%5 == 4 {
			fwd.Ping[ip] = pingsim.IfaceAgg{RTTMinMs: math.NaN()}
			continue
		}
		a.RTTMinMs = a.RTTMinMs*1.5 + 1
		fwd.Ping[ip] = a
	}
	return fwd, rev
}

// serveDefaultTenant is the rpi-serve wiring in-process: an in-memory
// host whose one tenant holds in, fronted with that tenant as the
// default so the short /v1 routes reach it. It returns the server and
// the tenant's (opened) engine; cleanup runs when b ends.
func serveDefaultTenant(b *testing.B, in rpi.Inputs, cfg serve.Config) (*httptest.Server, *rpi.Engine) {
	b.Helper()
	quiet := log.New(io.Discard, "", 0)
	h, err := host.Open(host.Config{
		Inputs: func(host.TenantSpec) (rpi.Inputs, error) { return in, nil },
		Logger: quiet,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = h.Close() })
	if err := h.Create(host.TenantSpec{Name: "default"}); err != nil {
		b.Fatal(err)
	}
	lease, err := h.Lease(context.Background(), "default")
	if err != nil {
		b.Fatal(err)
	}
	eng := lease.Guard().Engine()
	lease.Release()
	cfg.Logger = quiet
	srv := httptest.NewServer(serve.NewHost(h, "default", cfg))
	b.Cleanup(srv.Close)
	return srv, eng
}

// BenchmarkServeHTTP drives the rpi-serve handler through a real HTTP
// stack (httptest): snapshot serving, per-IXP reports, the first full
// read after an apply (the report plane's build), and applies (each
// journaled to the tenant's in-memory WAL), all through the default
// tenant's short /v1 routes.
func BenchmarkServeHTTP(b *testing.B) {
	e := benchEnv(b)
	srv, eng := serveDefaultTenant(b, e.Inputs, serve.Config{})
	client := srv.Client()

	get := func(b *testing.B, url string) int {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("GET %s: %d", url, resp.StatusCode)
		}
		return int(n)
	}

	b.Run("infer", func(b *testing.B) {
		b.ReportAllocs()
		n := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n = get(b, srv.URL+"/v1/infer")
		}
		b.SetBytes(int64(n))
	})
	b.Run("report-ixp", func(b *testing.B) {
		ixp := e.StudiedIXPs(1)[0].Name
		b.ReportAllocs()
		n := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n = get(b, srv.URL+"/v1/report/"+ixp)
		}
		b.SetBytes(int64(n))
	})
	b.Run("infer-after-apply", func(b *testing.B) {
		// Every read follows an apply, so each one is a plane miss: the
		// price of the first read of a publication. The apply is untimed.
		fwd := rpi.ChurnDelta(eng.Inputs(), 0.01, 59)
		rev := rpi.InvertDelta(eng.Inputs(), fwd)
		bodies := [2][]byte{wireDeltaBody(b, fwd), wireDeltaBody(b, rev)}
		b.ReportAllocs()
		n := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			resp, err := client.Post(srv.URL+"/v1/apply", "application/json", bytes.NewReader(bodies[i%2]))
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("apply: %d", resp.StatusCode)
			}
			b.StartTimer()
			n = get(b, srv.URL+"/v1/infer")
		}
		b.SetBytes(int64(n))
	})
	b.Run("apply", func(b *testing.B) {
		fwd := rpi.ChurnDelta(eng.Inputs(), 0.01, 53)
		rev := rpi.InvertDelta(eng.Inputs(), fwd)
		bodies := [2][]byte{wireDeltaBody(b, fwd), wireDeltaBody(b, rev)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Post(srv.URL+"/v1/apply", "application/json",
				bytes.NewReader(bodies[i%2]))
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("apply: %d", resp.StatusCode)
			}
		}
	})
}

// BenchmarkServeOverload prices the admission valve under saturation:
// each iteration fires a burst of concurrent full-report reads at a
// server whose Read class is deliberately tiny (2 slots, 2 queued,
// 2ms max wait), so most of the burst must be shed with a fast 503
// while the admitted requests keep their latency bounded. The two
// reported metrics are the serving-plane SLO pair: shed% (how much of
// the burst was refused — high is correct here, the valve working)
// and p99-ms (tail latency of the admitted reads — the number the
// valve exists to protect). The host holds one tenant, so no
// fair-share cap applies: the class gate alone is the valve being
// priced.
func BenchmarkServeOverload(b *testing.B) {
	const burst = 64
	e := benchEnv(b)
	srv, _ := serveDefaultTenant(b, e.Inputs, serve.Config{
		Admission: admission.Config{
			Read: admission.Limits{Slots: 2, Queue: 2, MaxWait: 2 * time.Millisecond},
		},
	})
	client := srv.Client()

	var (
		mu       sync.Mutex
		lat      []time.Duration
		admitted atomic.Uint64
		shed     atomic.Uint64
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < burst; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				resp, err := client.Get(srv.URL + "/v1/infer")
				if err != nil {
					b.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					d := time.Since(start)
					admitted.Add(1)
					mu.Lock()
					lat = append(lat, d)
					mu.Unlock()
				case http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						b.Error("shed response missing Retry-After")
					}
					shed.Add(1)
				default:
					b.Errorf("unexpected status %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	total := admitted.Load() + shed.Load()
	if total == 0 {
		b.Fatal("no requests completed")
	}
	if admitted.Load() == 0 {
		b.Fatal("every request was shed: the valve starved the admitted class")
	}
	b.ReportMetric(100*float64(shed.Load())/float64(total), "shed%")
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	b.ReportMetric(float64(p99)/float64(time.Millisecond), "p99-ms")
}

// wireDeltaBody renders a churn delta as a /v1/apply request body.
func wireDeltaBody(b *testing.B, d rpi.Delta) []byte {
	b.Helper()
	var wd serve.WireDelta
	for _, j := range d.Joins {
		wd.Joins = append(wd.Joins, serve.WireJoin{
			IXP: j.IXP, Iface: j.Iface.String(), ASN: uint32(j.ASN), PortMbps: j.PortMbps,
		})
	}
	for _, l := range d.Leaves {
		wd.Leaves = append(wd.Leaves, serve.WireKey{IXP: l.IXP, Iface: l.Iface.String()})
	}
	body, err := json.Marshal(wd)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// benchWorldPath returns the cached .rpw world for a scale rung,
// generating and writing it (untimed) on first use. The cache survives
// across benchmark invocations — RPI_WORLD_CACHE overrides the
// default .benchcache directory (gitignored; CI caches it between
// jobs) — so the 1024x rung pays world generation once per machine,
// not once per run.
func benchWorldPath(b *testing.B, factor int) string {
	b.Helper()
	dir := os.Getenv("RPI_WORLD_CACHE")
	if dir == "" {
		dir = ".benchcache"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.Fatal(err)
	}
	// The format version is part of the name: a bundle cached by a
	// build with another world-file format is regenerated, not loaded
	// (which would fail with worldfile.ErrVersion).
	path := filepath.Join(dir, fmt.Sprintf("world-v%d-seed1-%dx.rpw", worldfile.FormatVersion, factor))
	if _, err := os.Stat(path); err == nil {
		return path
	}
	b.Logf("generating %dx world bundle %s (one-time, untimed)...", factor, path)
	cfg := netsim.DefaultConfig()
	if factor > 1 {
		cfg = netsim.ScaledConfig(factor)
	}
	in, err := rpi.InputsFromConfig(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := worldfile.WriteFile(path, in); err != nil {
		b.Fatal(err)
	}
	return path
}

func BenchmarkScaleWorld(b *testing.B) {
	// The 64x rung (~324k memberships) became practical with the
	// interned-ID columnar substrate; the 256x rung (~1.3M
	// memberships) with the parallel columnar cold start (hashed
	// per-entity RNG streams, slab batches, sharded context build) —
	// before it, env-build there was a tens-of-minutes affair. The
	// 1024x rung (~5M memberships) runs over the binary world file:
	// generation is paid once into the cache, and the measured path is
	// what production pays — load + engine build, not generation.
	for _, factor := range []int{1, 4, 16, 64, 256} {
		factor := factor
		b.Run(fmt.Sprintf("%dx", factor), func(b *testing.B) {
			b.Run("env-build", func(b *testing.B) {
				b.ReportAllocs()
				var last *exp.Env
				for i := 0; i < b.N; i++ {
					e, err := exp.NewEnvWithConfig(netsim.ScaledConfig(factor), 1)
					if err != nil {
						b.Fatal(err)
					}
					last = e
					sink = e
				}
				// Domain size comes from the env built in the loop: a
				// benchScaledEnv call here would run inside the timed
				// window and double the recorded cost at -benchtime=1x.
				b.ReportMetric(float64(last.Report.Len()), "inferences/op")
				// Seed the cache so the sibling sub-benchmarks reuse
				// this env instead of rebuilding the same world.
				scaleMu.Lock()
				if _, ok := scaleEnvs[factor]; !ok {
					scaleEnvs[factor] = last
				}
				scaleMu.Unlock()
			})
			b.Run("context-build", func(b *testing.B) {
				e := benchScaledEnv(b, factor)
				b.ReportAllocs()
				runtime.GC() // don't bill env-build garbage to this phase
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := core.NewContext(e.Inputs)
					if err != nil {
						b.Fatal(err)
					}
					sink = c
				}
				b.ReportMetric(float64(e.Report.Len()), "inferences/op")
			})
			b.Run("pipeline", func(b *testing.B) {
				e := benchScaledEnv(b, factor)
				opt := core.DefaultOptions()
				b.ReportAllocs()
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := e.Ctx.Run(opt)
					if err != nil {
						b.Fatal(err)
					}
					sink = rep
				}
				b.ReportMetric(float64(e.Report.Len()), "inferences/op")
			})
			b.Run("suite", func(b *testing.B) {
				e := benchScaledEnv(b, factor)
				b.ReportAllocs()
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink = exp.All(e, 0)
				}
				b.ReportMetric(float64(e.Report.Len()), "inferences/op")
			})
		})
	}

	// The world-file rungs: the serving path loads a pre-generated
	// bundle instead of generating the world. 16x doubles as the CI
	// cache fixture; 1024x is the ~5M-membership tentpole. The suite
	// stage is skipped here — at 5M memberships the artefact
	// constructors are an offline analysis concern, not a serving one.
	for _, factor := range []int{16, 1024} {
		factor := factor
		b.Run(fmt.Sprintf("%dx-worldfile", factor), func(b *testing.B) {
			path := benchWorldPath(b, factor)
			b.Run("world-load", func(b *testing.B) {
				b.ReportAllocs()
				runtime.GC()
				b.ResetTimer()
				var in rpi.Inputs
				for i := 0; i < b.N; i++ {
					var err error
					in, err = worldfile.Load(path)
					if err != nil {
						b.Fatal(err)
					}
					sink = in
				}
				b.ReportMetric(float64(len(in.World.Members)), "memberships/op")
			})
			b.Run("cold-to-serving", func(b *testing.B) {
				// Honest time-to-ready from a cold process: read + decode
				// the bundle, build the engine, run the pipeline.
				b.ReportAllocs()
				runtime.GC()
				b.ResetTimer()
				var eng *rpi.Engine
				for i := 0; i < b.N; i++ {
					in, err := worldfile.Load(path)
					if err != nil {
						b.Fatal(err)
					}
					eng, err = rpi.New(in)
					if err != nil {
						b.Fatal(err)
					}
					sink = eng
				}
				b.StopTimer()
				b.ReportMetric(float64(eng.Snapshot().Len()), "inferences/op")
			})
			b.Run("pipeline", func(b *testing.B) {
				in, err := worldfile.Load(path)
				if err != nil {
					b.Fatal(err)
				}
				ctx, err := core.NewContext(in)
				if err != nil {
					b.Fatal(err)
				}
				opt := core.DefaultOptions()
				// Warm the context's alias/ring memos untimed so this rung
				// measures the same steady-state re-run as the generated
				// rungs' pipeline stage (the cold first run is what
				// cold-to-serving prices).
				if _, err := ctx.Run(opt); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				runtime.GC()
				b.ResetTimer()
				var rep *core.Report
				for i := 0; i < b.N; i++ {
					rep, err = ctx.Run(opt)
					if err != nil {
						b.Fatal(err)
					}
					sink = rep
				}
				b.StopTimer()
				b.ReportMetric(float64(rep.Len()), "inferences/op")
			})
		})
	}
}

// ---------------------------------------------------------------------------
// Crash recovery (PR 6)

// BenchmarkRecovery measures the two restart paths of the persistent
// engine: recovering from a published snapshot (replay = 0, the clean
// shutdown / checkpointed case) and replaying the full delta log with
// no snapshot at all (the worst case an un-checkpointed crash leaves
// behind). Both include the substrate rebuild and pipeline run, so
// ns/op is honest time-to-ready.
func BenchmarkRecovery(b *testing.B) {
	const seedDeltas = 16
	for _, factor := range []int{1, 16} {
		factor := factor
		b.Run(fmt.Sprintf("%dx", factor), func(b *testing.B) {
			e := benchScaledEnv(b, factor)
			seed := func(b *testing.B, dir string, opts ...rpi.Option) {
				b.Helper()
				opts = append([]rpi.Option{rpi.WithSync(rpi.SyncOff)}, opts...)
				eng, _, err := rpi.Open(dir, e.Inputs, opts...)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < seedDeltas; k++ {
					if _, err := eng.Apply(context.Background(), rpi.ChurnDelta(eng.Inputs(), 0.01, int64(300+k))); err != nil {
						b.Fatal(err)
					}
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.Run("snapshot-load", func(b *testing.B) {
				dir := b.TempDir()
				seed(b, dir) // clean Close publishes the final snapshot
				b.ReportAllocs()
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rec, info, err := rpi.Open(dir, e.Inputs, rpi.WithSync(rpi.SyncOff))
					if err != nil {
						b.Fatal(err)
					}
					if info.SnapshotSeq != seedDeltas || info.Replayed != 0 {
						b.Fatalf("not a snapshot-only recovery: %+v", info)
					}
					b.StopTimer()
					if err := rec.Close(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					sink = rec
				}
				b.ReportMetric(float64(seedDeltas), "snapseq/op")
			})
			b.Run("log-replay", func(b *testing.B) {
				dir := b.TempDir()
				// Snapshots disabled while seeding; the final Close still
				// publishes one, so Replay is bounded below it on purpose:
				// replaying to seedDeltas-0 forces the no-snapshot path
				// only if no snapshot <= bound exists — bound at one short
				// of the close snapshot.
				seed(b, dir, rpi.WithSnapshotEvery(0))
				b.ReportAllocs()
				runtime.GC()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rec, info, err := rpi.Replay(dir, e.Inputs, seedDeltas-1)
					if err != nil {
						b.Fatal(err)
					}
					if info.SnapshotName != "" || info.Replayed != seedDeltas-1 {
						b.Fatalf("not a pure log replay: %+v", info)
					}
					rec.Close()
					sink = rec
				}
				b.ReportMetric(float64(seedDeltas-1), "replayed/op")
			})
		})
	}
}

// BenchmarkHostServe prices the multi-tenant serving plane: four
// tiny-world tenants behind one host, each iteration firing a
// concurrent burst of full-report reads spread across every tenant.
// Reads ride the per-publication report-byte cache (no delta traffic
// here), so this is the fleet's steady-state read path: admission,
// tenant routing, lease, cached bytes. Reported metrics are the SLO
// pair per the load generator: p50-ms/p99-ms of admitted reads and
// shed% across the burst.
func BenchmarkHostServe(b *testing.B) {
	const (
		tenants   = 4
		perTenant = 8
	)
	quiet := log.New(io.Discard, "", 0)
	h, err := host.Open(host.Config{
		Inputs: func(sp host.TenantSpec) (rpi.Inputs, error) {
			cfg := netsim.TinyConfig()
			cfg.Seed = sp.Seed
			return rpi.InputsFromConfig(cfg, sp.Seed)
		},
		Logger: quiet,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		if err := h.Create(host.TenantSpec{Name: names[i], Seed: int64(i + 1), Profile: "tiny"}); err != nil {
			b.Fatal(err)
		}
	}
	srv := httptest.NewServer(serve.NewHost(h, "", serve.Config{Logger: quiet}))
	defer srv.Close()
	client := srv.Client()

	// First touch lazily opens each tenant's engine; that is the host's
	// open path, not the read path being priced here.
	for _, tn := range names {
		resp, err := client.Get(srv.URL + "/v1/t/" + tn + "/infer")
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("warm %s: %d", tn, resp.StatusCode)
		}
	}

	var (
		mu       sync.Mutex
		lat      []time.Duration
		admitted atomic.Uint64
		shed     atomic.Uint64
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, tn := range names {
			url := srv.URL + "/v1/t/" + tn + "/infer"
			for j := 0; j < perTenant; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					start := time.Now()
					resp, err := client.Get(url)
					if err != nil {
						b.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						d := time.Since(start)
						admitted.Add(1)
						mu.Lock()
						lat = append(lat, d)
						mu.Unlock()
					case http.StatusServiceUnavailable:
						shed.Add(1)
					default:
						b.Errorf("unexpected status %d", resp.StatusCode)
					}
				}()
			}
		}
		wg.Wait()
	}
	b.StopTimer()
	total := admitted.Load() + shed.Load()
	if admitted.Load() == 0 {
		b.Fatal("every read was shed")
	}
	b.ReportMetric(100*float64(shed.Load())/float64(total), "shed%")
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2])/float64(time.Millisecond), "p50-ms")
	b.ReportMetric(float64(lat[len(lat)*99/100])/float64(time.Millisecond), "p99-ms")
}
