package exp

import (
	"runtime"
	"testing"
	"time"
)

// TestAllParallelMatchesSerial pins the determinism contract of the
// parallel artefact fan-out: every table rendered by the worker pool
// must be byte-identical to the serial path, in the same order. The
// parallel pass runs first, on a freshly built environment, so the
// workers exercise concurrent first-touch construction of the
// context's lazy caches rather than a pre-warmed fast path.
func TestAllParallelMatchesSerial(t *testing.T) {
	e, err := NewEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel := All(e, 8)
	serial := All(e, 1)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].ID != parallel[i].ID {
			t.Fatalf("order differs at %d: %q vs %q", i, serial[i].ID, parallel[i].ID)
		}
		ss, ps := serial[i].Table.String(), parallel[i].Table.String()
		if ss != ps {
			t.Errorf("%s differs between serial and parallel runs:\nserial:\n%s\nparallel:\n%s",
				serial[i].ID, ss, ps)
		}
	}
}

// TestAllWorkersMoreWorkersThanItems is the regression test for the
// worker-pool bound: asking for far more workers than there are
// artefacts must neither deadlock, nor drop or reorder results, nor
// leak goroutines after the call returns.
func TestAllWorkersMoreWorkersThanItems(t *testing.T) {
	e := env(t)
	before := runtime.NumGoroutine()
	ref := All(e, 1)
	got := All(e, 50*len(artefacts))
	if len(got) != len(ref) {
		t.Fatalf("result counts differ: %d vs %d", len(got), len(ref))
	}
	for i := range ref {
		if ref[i].ID != got[i].ID {
			t.Fatalf("order differs at %d: %q vs %q", i, ref[i].ID, got[i].ID)
		}
		if ref[i].Table.String() != got[i].Table.String() {
			t.Errorf("%s differs under oversubscribed worker pool", ref[i].ID)
		}
	}
	// The pool must wind down: allow the runtime a moment to retire
	// worker goroutines, then require the count back near the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestScheduleCoversAllArtefactsLongestFirst pins the straggler-aware
// schedule: it must be a permutation of all artefact indexes, ordered
// by non-increasing cost.
func TestScheduleCoversAllArtefactsLongestFirst(t *testing.T) {
	if len(schedule) != len(artefacts) {
		t.Fatalf("schedule covers %d of %d artefacts", len(schedule), len(artefacts))
	}
	seen := make(map[int]bool, len(schedule))
	for pos, i := range schedule {
		if i < 0 || i >= len(artefacts) || seen[i] {
			t.Fatalf("schedule position %d holds invalid or duplicate index %d", pos, i)
		}
		seen[i] = true
		if pos > 0 && artefacts[schedule[pos-1]].costUs < artefacts[i].costUs {
			t.Fatalf("schedule not longest-first at position %d", pos)
		}
	}
	// The measured straggler (Sec 6.4 since the PR 4/PR 5 speedups)
	// must lead the schedule.
	max := 0
	for _, a := range artefacts {
		if a.costUs > max {
			max = a.costUs
		}
	}
	if artefacts[schedule[0]].costUs != max {
		t.Errorf("schedule leads with %dus artefact, want the %dus straggler", artefacts[schedule[0]].costUs, max)
	}
}

// TestParallelSuiteBeatsSerial is the wall-clock regression test for
// the artefact fan-out: with real parallelism available, the worker
// pool must finish the suite in well under the serial time (the PR 2
// cost table had gone stale by PR 4 — parallel ran at ~1.0x serial —
// which this test exists to catch). Both paths run on a pre-warmed
// environment so the comparison measures scheduling, not first-touch
// cache construction; the serial reference is the best of two runs.
func TestParallelSuiteBeatsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison")
	}
	if raceEnabled {
		t.Skip("race instrumentation serializes execution; wall-clock bound is meaningless")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("needs >= 4 CPUs for a meaningful speedup bound, have %d", runtime.NumCPU())
	}
	e := env(t)
	All(e, 1) // warm every lazy cache once

	serial := time.Duration(1 << 62)
	for r := 0; r < 2; r++ {
		start := time.Now()
		All(e, 1)
		if d := time.Since(start); d < serial {
			serial = d
		}
	}
	par := time.Duration(1 << 62)
	for r := 0; r < 2; r++ {
		start := time.Now()
		All(e, 0)
		if d := time.Since(start); d < par {
			par = d
		}
	}
	if par >= serial*8/10 {
		t.Errorf("parallel suite %v >= 0.8x serial %v", par, serial)
	}
}
