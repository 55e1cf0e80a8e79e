// Command rpi-benchdiff compares two benchmark snapshots produced by
// rpi-benchsnap and fails (exit 1) when any headline benchmark
// regressed beyond a threshold. It is the teeth behind
// `make bench-compare BASE=BENCH_PRn.json`: a fresh snapshot is diffed
// against the committed baseline of the previous PR, so a perf claim
// that silently rots fails the build instead of surfacing at the next
// manual snapshot.
//
// Usage:
//
//	rpi-benchdiff -base BENCH_PR4.json -new /tmp/fresh.json
//	rpi-benchdiff -base BENCH_PR4.json -new fresh.json -threshold 0.5 -headline 'BenchmarkFullPipeline$'
//
// Besides ns/op, bytes/op and allocs/op are judged by the same
// threshold when both snapshots carry them (-benchmem runs): an
// allocation regression is a perf regression that merely hasn't hit
// the wall clock yet. Only benchmarks present in both snapshots and
// matching the headline pattern are compared (a renamed or newly added
// benchmark is not a regression). ns/op comparisons only make sense
// between runs on the same machine; CI wiring should compare
// runner-built snapshots with a generous threshold or pin the runner
// class.
//
// Accuracy is judged exactly, on every benchmark present in both
// snapshots whatever -headline selects: the ACC%, COV%, FPR% and FNR%
// metrics the ablation benchmarks report are deterministic outputs of
// the methodology, so any difference is either a bug or a deliberate
// re-pin of the baseline snapshot, never noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
)

// Record mirrors rpi-benchsnap's per-benchmark layout. BytesPerOp and
// AllocsPerOp are pointers: absent means the snapshot predates
// -benchmem capture, which must not read as "zero allocations".
type Record struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"b_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot mirrors rpi-benchsnap's file layout.
type Snapshot struct {
	CPU   string   `json:"cpu,omitempty"`
	Bench []Record `json:"benchmarks"`
}

// defaultHeadline selects the perf-claim benchmarks: the shared-context
// pipeline, substrate construction, incremental apply, the HTTP front
// end and the scaling rungs.
const defaultHeadline = `^Benchmark(FullPipeline$|ContextBuild$|EngineApply/.*/incremental$|ServeHTTP/|ScaleWorld/)`

func load(path string) (map[string]Record, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]Record, len(s.Bench))
	for _, r := range s.Bench {
		out[r.Name] = r
	}
	return out, s.CPU, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpi-benchdiff: ")
	base := flag.String("base", "", "baseline snapshot (committed BENCH_PRn.json)")
	fresh := flag.String("new", "", "fresh snapshot to judge")
	threshold := flag.Float64("threshold", 0.20, "fail when ns/op, bytes/op or allocs/op grows by more than this fraction")
	headline := flag.String("headline", defaultHeadline, "regexp selecting the headline benchmarks")
	flag.Parse()
	if *base == "" || *fresh == "" {
		log.Fatal("need -base and -new")
	}
	re, err := regexp.Compile(*headline)
	if err != nil {
		log.Fatalf("bad -headline: %v", err)
	}

	baseRec, baseCPU, err := load(*base)
	if err != nil {
		log.Fatal(err)
	}
	newRec, newCPU, err := load(*fresh)
	if err != nil {
		log.Fatal(err)
	}
	if baseCPU != "" && newCPU != "" && baseCPU != newCPU {
		fmt.Printf("note: snapshots come from different CPUs (%q vs %q); ratios may reflect hardware, not code\n", baseCPU, newCPU)
	}

	res := diff(os.Stdout, baseRec, newRec, re, *threshold)
	if res.compared == 0 {
		log.Fatal("no headline benchmarks in common; nothing compared")
	}
	failed := false
	if res.regressions > 0 {
		log.Printf("%d of %d headline metrics regressed beyond %.0f%%", res.regressions, res.compared, *threshold*100)
		failed = true
	}
	if res.drifts > 0 {
		log.Printf("%d of %d accuracy metrics differ from %s", res.drifts, res.accuracy, *base)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("ok: %d headline metrics within %.0f%%, %d accuracy metrics equal to %s\n", res.compared, *threshold*100, res.accuracy, *base)
}

// accuracyMetrics are the methodology outputs judged exactly.
var accuracyMetrics = []string{"ACC%", "COV%", "FPR%", "FNR%"}

// result counts what diff judged and what failed.
type result struct {
	compared, regressions int // headline perf metrics
	accuracy, drifts      int // exact accuracy metrics
}

// diff judges fresh against base, printing one row per judged metric
// to w. Headline benchmarks (matching re) have ns/op, B/op and
// allocs/op judged against the threshold; every benchmark in both
// snapshots has its accuracy metrics compared exactly.
func diff(w io.Writer, baseRec, newRec map[string]Record, re *regexp.Regexp, threshold float64) result {
	var res result
	names := make([]string, 0, len(baseRec))
	for name := range baseRec {
		names = append(names, name)
	}
	sort.Strings(names)

	// judge compares one metric of one benchmark, printing the row and
	// counting a regression past the threshold. Metrics missing on
	// either side (old snapshots without -benchmem, or a zero
	// baseline) are skipped, not failed.
	judge := func(name, unit string, b, n float64) {
		if b <= 0 {
			return
		}
		res.compared++
		ratio := n / b
		mark := " "
		if ratio > 1+threshold {
			mark = "!"
			res.regressions++
		}
		fmt.Fprintf(w, "%s %-55s %14.0f -> %14.0f %s  (%.2fx)\n", mark, name, b, n, unit, ratio)
	}
	for _, name := range names {
		b := baseRec[name]
		n, ok := newRec[name]
		if !ok {
			continue
		}
		for _, m := range accuracyMetrics {
			bv, okB := b.Metrics[m]
			nv, okN := n.Metrics[m]
			if !okB || !okN {
				continue
			}
			res.accuracy++
			mark := " "
			if bv != nv {
				mark = "!"
				res.drifts++
			}
			fmt.Fprintf(w, "%s %-55s %14.4g -> %14.4g %s  (exact)\n", mark, name, bv, nv, m)
		}
		if !re.MatchString(name) {
			continue
		}
		judge(name, "ns/op", b.NsPerOp, n.NsPerOp)
		if b.BytesPerOp != nil && n.BytesPerOp != nil {
			judge(name, "B/op", *b.BytesPerOp, *n.BytesPerOp)
		}
		if b.AllocsPerOp != nil && n.AllocsPerOp != nil {
			judge(name, "allocs/op", *b.AllocsPerOp, *n.AllocsPerOp)
		}
	}
	return res
}
