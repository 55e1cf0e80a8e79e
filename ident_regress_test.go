package rpeer

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"rpeer/internal/netsim"
	"rpeer/pkg/rpi"
)

// TestReportsBitIdenticalUnderInterning pins the columnar substrate's
// determinism contract: the report a worker-W engine produces over a
// scaled world must be byte-identical on the /v1 wire for every worker
// count — cold, after a churn delta and after an RTT delta, each of
// which the engine absorbs through the incremental run — and equal to
// a cold engine over the same inputs, and identical again after each
// delta round-trips through Apply. Combined with the committed wire
// golden (pkg/rpi/testdata, re-pinned once in PR 5 with the
// hashed-stream RNG), this pins "the substrate changes no verdict" at
// 1x and extends the worker-invariance pin to the 4x world.
func TestReportsBitIdenticalUnderInterning(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4x world")
	}
	workerSet := []int{1, 4, runtime.NumCPU()}
	for _, factor := range []int{1, 4} {
		factor := factor
		t.Run(fmt.Sprintf("%dx", factor), func(t *testing.T) {
			in, err := rpi.SyntheticInputs(1, factor)
			if err != nil {
				t.Fatal(err)
			}
			var ref []byte
			refs := map[string][]byte{}
			for _, w := range workerSet {
				eng, err := rpi.New(in, rpi.WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				wire := wireOf(t, eng.Snapshot())
				if ref == nil {
					ref = wire
				} else if !bytes.Equal(ref, wire) {
					t.Fatalf("workers=%d: wire bytes diverge from workers=%d (%d vs %d bytes)",
						w, workerSet[0], len(wire), len(ref))
				}

				// Each delta absorbed incrementally must equal the serial
				// engine and a cold one over the post-delta inputs; then,
				// reverted, it must land back on the identical wire bytes:
				// the interned ID space grew (joins append, leaves keep
				// their IDs) but no verdict may move.
				churnFwd := rpi.ChurnDelta(eng.Inputs(), 0.02, 1234)
				churnRev := rpi.InvertDelta(eng.Inputs(), churnFwd)
				rttFwd, rttRev := rttRefreshPair(eng.Inputs(), 0.01, 77)
				for _, pair := range []struct {
					name     string
					fwd, rev rpi.Delta
				}{{"churn", churnFwd, churnRev}, {"rtt", rttFwd, rttRev}} {
					inc0, _ := eng.Context().IncrementalRuns()
					if _, err := eng.Apply(context.Background(), pair.fwd); err != nil {
						t.Fatal(err)
					}
					if inc, _ := eng.Context().IncrementalRuns(); inc != inc0+1 {
						t.Fatalf("workers=%d: the %s delta did not take the incremental run", w, pair.name)
					}
					got := wireOf(t, eng.Snapshot())
					if refs[pair.name] == nil {
						cold, err := rpi.New(eng.Inputs())
						if err != nil {
							t.Fatal(err)
						}
						refs[pair.name] = wireOf(t, cold.Snapshot())
						cold.Close()
					}
					if !bytes.Equal(refs[pair.name], got) {
						t.Fatalf("workers=%d: wire bytes after the %s delta diverge from the serial and cold engines", w, pair.name)
					}
					if _, err := eng.Apply(context.Background(), pair.rev); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(ref, wireOf(t, eng.Snapshot())) {
						t.Fatalf("workers=%d: wire bytes changed after the %s delta's round-trip", w, pair.name)
					}
				}
				eng.Close()
			}
		})
	}
}

func wireOf(t *testing.T, rep *rpi.Report) []byte {
	t.Helper()
	wire, err := rpi.MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestScaledConfig64x pins the 64x preset the new benchmark rung runs
// on: membership growth must stay roughly linear in the factor so
// "324k memberships" keeps meaning what BENCH_PR4.json says it means.
func TestScaledConfig64x(t *testing.T) {
	c1, c64 := netsim.DefaultConfig(), netsim.ScaledConfig(64)
	if c64.NASes < 60*c1.NASes {
		t.Fatalf("64x ASes = %d, want >= 60x default (%d)", c64.NASes, c1.NASes)
	}
	members1 := c1.NIXPs * (c1.MinIXPMembers + c1.LargestIXPMembers) / 2
	members64 := c64.NIXPs * (c64.MinIXPMembers + c64.LargestIXPMembers) / 2
	if members64 < 50*members1 {
		t.Fatalf("64x rough membership estimate %d, want >= 50x the default's %d", members64, members1)
	}
}
