package core

import (
	"fmt"
	"sync"
	"testing"

	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
)

// TestShardedRunBitIdenticalAcrossWorkerCounts pins the determinism
// contract of the sharded classification: for every option variant,
// reports must be bit-identical whether the per-membership steps run
// serially, on a few shards, or on far more shards than chunks of
// work.
func TestShardedRunBitIdenticalAcrossWorkerCounts(t *testing.T) {
	in, _, _ := fixtures(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range optionVariants() {
		serial := opt
		serial.Workers = 1
		ref, err := ctx.Run(serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8, 64} {
			par := opt
			par.Workers = workers
			got, err := ctx.Run(par)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, name+"/serial-vs-sharded", ref, got)
		}
	}
}

// TestShardedRunStepAndOrderBitIdentical extends the worker-count
// invariance to the per-step evaluation and a reordered Options.Steps.
func TestShardedRunStepAndOrderBitIdentical(t *testing.T) {
	in, _, _ := fixtures(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	serial, par := DefaultOptions(), DefaultOptions()
	serial.Workers, par.Workers = 1, 8
	for _, s := range []Step{StepPortCapacity, StepRTTColo, StepMultiIXP, StepPrivate} {
		ref, err := ctx.RunStep(serial, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ctx.RunStep(par, s)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "step "+s.String(), ref, got)
	}
	serial.Steps = []Step{StepPrivate, StepRTTColo, StepPortCapacity}
	par.Steps = serial.Steps
	ref, err := ctx.Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ctx.Run(par)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "with-order", ref, got)
}

// TestConcurrentContextConstruction exercises the parallel substrate
// build under the race detector: several contexts constructed
// concurrently over the same (immutable) inputs must all come out
// identical to a reference built alone.
func TestConcurrentContextConstruction(t *testing.T) {
	in, _, _ := fixtures(t)
	ref, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := ref.Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	ctxs := make([]*Context, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctxs[i], errs[i] = NewContext(in)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		rep, err := ctxs[i].Run(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "concurrently-built context", refRep, rep)
	}
}

// TestRingMemoUnderParallelShardAccess hammers the geo ring memo the
// way parallel shards do: many goroutines querying the same
// (VP location, facility set) keys on a cold context, checking every
// result against a reference computed on a warm serial context. Run
// with -race this pins the first-touch construction of the memoized
// distance indexes.
func TestRingMemoUnderParallelShardAccess(t *testing.T) {
	in, _, _ := fixtures(t)
	warm, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}

	// Reference rings from the warm context, computed serially. Memo
	// keys are per-context (VP slots and interned IXP ids), so each
	// side derives its own key from the (vp, ixp) pair.
	type query struct {
		vp   *pingsim.VP
		ixp  string
		facs []netsim.FacilityID
		want []netsim.FacilityID
	}
	var queries []query
	var vps []*pingsim.VP
	for _, vp := range in.Ping.UsableVPs {
		vps = append(vps, vp)
		if len(vps) == 8 {
			break
		}
	}
	for ixp, facs := range in.Colo.IXPFacilities {
		id, ok := warm.ids.IXP(ixp)
		if !ok {
			continue // colo knows IXPs outside the merged dataset
		}
		for _, vp := range vps {
			want := warm.ringQuery(warm.vpSlotOf(vp), ringIXP, uint32(id), facs, 0, 500, nil)
			queries = append(queries, query{vp: vp, ixp: ixp, facs: facs, want: want})
		}
		if len(queries) >= 256 {
			break
		}
	}
	if len(queries) == 0 {
		t.Fatal("no ring queries derivable from fixtures")
	}

	const workers = 16
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []netsim.FacilityID
			// Offset start per worker so first touches collide.
			for i := 0; i < len(queries); i++ {
				q := queries[(i+w*7)%len(queries)]
				id, _ := cold.ids.IXP(q.ixp)
				buf = cold.ringQuery(cold.vpSlotOf(q.vp), ringIXP, uint32(id), q.facs, 0, 500, buf[:0])
				if len(buf) != len(q.want) {
					errc <- fmt.Errorf("ring %s/vp%d: %d facilities, want %d", q.ixp, q.vp.ID, len(buf), len(q.want))
					return
				}
				for j := range buf {
					if buf[j] != q.want[j] {
						errc <- fmt.Errorf("ring %s/vp%d: facility %v at %d, want %v", q.ixp, q.vp.ID, buf[j], j, q.want[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
