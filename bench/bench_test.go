package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"rpeer/internal/netsim"
)

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{{1000, 0.99}, {100, 0.9}, {2000, 0.995}, {20, 0.5}, {5, 0.5}} {
		if got := tailQ(c.n); math.Abs(got-c.q) > 1e-12 {
			t.Errorf("tailQ(%d) = %v, want %v", c.n, got, c.q)
		}
	}
	// n = 1000 reports p99, which leaves exactly ten samples beyond it.
	var d dist
	for i := 1; i <= 1000; i++ {
		d.add(time.Duration(i) * time.Millisecond)
	}
	tail := d.tail()
	beyond := 0
	for _, v := range d {
		if v > tail {
			beyond++
		}
	}
	if tail != 990 || beyond != 10 {
		t.Errorf("tail of 1..1000 ms = %v with %d beyond, want 990 with 10", tail, beyond)
	}
	if d.p50() != 500 || d.p90() != 900 {
		t.Errorf("p50, p90 = %v, %v, want 500, 900", d.p50(), d.p90())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2], n=4).
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestPoissonScheduleIsSeededAndHoldsItsRate(t *testing.T) {
	a := poisson(rand.New(rand.NewSource(7)), 400, 20000)
	b := poisson(rand.New(rand.NewSource(7)), 400, 20000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two schedules of one seed", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
	rate := float64(len(a)) / a[len(a)-1].Seconds()
	if math.Abs(rate/400-1) > 0.02 {
		t.Errorf("mean rate %.1f/s, want 400/s within 2%%", rate)
	}
}

// A request held up behind a slow one is charged from its due time,
// not from when the busy client finally sent it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	due := []time.Duration{0, time.Millisecond}
	ss := openLoop(time.Now(), due, []*client{nil}, func(_ *client, i int) bool {
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
		}
		return true
	})
	if ss[1].late < 25*time.Millisecond || ss[1].lat < 25*time.Millisecond {
		t.Errorf("second request: late %v, latency %v; want both >= 25ms", ss[1].late, ss[1].lat)
	}
	if ss[1].svc > 20*time.Millisecond {
		t.Errorf("second request: service %v, want it near zero", ss[1].svc)
	}
	if n := backlogAtEnd(due, ss); n != 0 {
		t.Errorf("backlog %d, want 0 (the late request is the last one due)", n)
	}
}

// A read must serve a publication between the newest acknowledged
// apply when it was sent and the newest apply sent when it completed:
// a stale body, or one from an apply not yet sent, fails.
func TestHistoryRejectsStaleReads(t *testing.T) {
	wd, err := makeWorld(netsim.TinyConfig(), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h, err := wd.history(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s < len(h.full); s++ {
		if bytes.Equal(h.full[s], h.full[s-1]) {
			t.Fatalf("seq %d serves the same report as seq %d: a stale read would pass", s, s-1)
		}
	}
	ixp := "" // one whose report the first apply changes
	for _, x := range wd.ixps {
		if !bytes.Equal(h.ixp[0][x], h.ixp[1][x]) {
			ixp = x
			break
		}
	}
	if ixp == "" {
		t.Fatal("the first apply changes no IXP's report")
	}
	for _, c := range []struct {
		body   []byte
		ixp    string
		lo, hi uint64
		ok     bool
	}{
		{h.full[1], "", 1, 1, true},
		{h.full[2], "", 1, 2, true},  // an apply landed during the read
		{h.full[0], "", 1, 1, false}, // stale: seq 1 was acknowledged before the read
		{h.full[2], "", 1, 1, false}, // seq 2 was not sent before the read completed
		{h.ixp[1][ixp], ixp, 1, 1, true},
		{h.ixp[0][ixp], ixp, 1, 1, false},
		{h.full[1], ixp, 1, 1, false},
		{h.full[3], "", 4, 4, false}, // the history ends at seq 3
	} {
		if got := h.serves(c.body, c.ixp, c.lo, c.hi); got != c.ok {
			t.Errorf("serves(ixp %q, %d..%d) = %v, want %v", c.ixp, c.lo, c.hi, got, c.ok)
		}
	}
}

// The smoke test runs every workload on a tiny world, untraced and
// traced, and insists that every metric the benchmark defines comes out
// finite and that every check passes.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	work := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o, err := runWorkload(w, netsim.TinyConfig(), 1, 1, traced, work)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d failed: %v", w.name, traced, o.failed, o.attempted, o.problems)
			}
			defs, got := append(append([]metricDef(nil), endToEnd...), reported...), o.metrics
			if traced {
				defs, got = perLayer, o.layer
				if len(o.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.name)
				}
			}
			for _, d := range defs {
				v, ok := got[d.name]
				if !ok || !finite(v) {
					t.Errorf("%s (traced %v): metric %s = %v, present %v", w.name, traced, d.name, v, ok)
				}
			}
		}
	}
}

// At seed 1 the paper-scale world serves the committed ablation
// baseline's accuracy (BENCH_PR10.json, BenchmarkAblationBaselinePipeline).
func TestAccuracyPinnedAtSeed1(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a paper-scale world")
	}
	wd, err := makeWorld(netsim.DefaultConfig(), 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	body, err := coldReport(wd.in)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wd.accuracy(body)
	if err != nil {
		t.Fatal(err)
	}
	round := func(v float64, digits int) float64 {
		p := math.Pow(10, float64(digits))
		return math.Round(v*p) / p
	}
	got := [3]float64{round(100*m.ACC, 2), round(100*m.COV, 2), round(100*m.FPR, 3)}
	if want := [3]float64{94.24, 94.13, 5.169}; got != want {
		t.Errorf("acc/cov/fpr = %v, want %v", got, want)
	}
}

// benchmarkFile is BENCHMARK.json, which names the same workloads and
// metrics as the tables in main.go.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark defaults to %d", b.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, main.go has %q: %q", i, b.Workloads[i], w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why too long", w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for _, m := range b.EndToEnd {
		maxBound = math.Max(maxBound, m.Bound)
	}
	for i, d := range endToEnd {
		m := b.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d is %+v, main.go has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := b.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d is %+v, main.go has %+v", i, m, d)
		}
		if !name.MatchString(m.Name) {
			t.Errorf("per-layer name %q is malformed", m.Name)
		}
	}
}

func TestAgreeAppliesTheBounds(t *testing.T) {
	dir := t.TempDir()
	config := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(config, []byte(`{"end_to_end":[{"name":"setup_s","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, v float64) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, map[string]*summary{"w": {Metrics: map[string]*spread{"setup_s": {Median: v}}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, near, far := write("a.json", 1.0), write("b.json", 1.08), write("c.json", 1.2)
	var out bytes.Buffer
	if err := agreeFiles(config, a, near, &out); err != nil {
		t.Errorf("8%% apart under a 10%% bound: %v\n%s", err, out.String())
	}
	if err := agreeFiles(config, a, far, &out); err == nil {
		t.Errorf("20%% apart under a 10%% bound agreed\n%s", out.String())
	}
}
