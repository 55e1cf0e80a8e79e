package tracesim

import (
	"runtime"
	"testing"

	"rpeer/internal/netsim"
)

// TestGenerateWorkersIdentical pins the corpus fan-out: per-membership
// and per-link streams make the path list identical for every worker
// count, in the same order.
func TestGenerateWorkersIdentical(t *testing.T) {
	w, err := netsim.Generate(netsim.TinyConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	ref := Generate(w, cfg, 1)
	if len(ref) == 0 {
		t.Fatal("empty corpus")
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		got := Generate(w, cfg, workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d paths, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if ref[i].Dst != got[i].Dst || len(ref[i].Hops) != len(got[i].Hops) {
				t.Fatalf("workers=%d: path %d differs", workers, i)
			}
			for h := range ref[i].Hops {
				if ref[i].Hops[h] != got[i].Hops[h] {
					t.Fatalf("workers=%d: path %d hop %d differs", workers, i, h)
				}
			}
		}
	}
}
