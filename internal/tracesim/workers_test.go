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
	if ref.Len() == 0 {
		t.Fatal("empty corpus")
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		got := Generate(w, cfg, workers)
		if got.Len() != ref.Len() {
			t.Fatalf("workers=%d: %d paths, want %d", workers, got.Len(), ref.Len())
		}
		for i := 0; i < ref.Len(); i++ {
			rlo, rhi := ref.Hops(i)
			glo, ghi := got.Hops(i)
			if ref.Src[i] != got.Src[i] || ref.Dst[i] != got.Dst[i] || rhi-rlo != ghi-glo {
				t.Fatalf("workers=%d: path %d differs", workers, i)
			}
			for h := 0; h < rhi-rlo; h++ {
				if ref.Hop[rlo+h] != got.Hop[glo+h] || ref.RTT[rlo+h] != got.RTT[glo+h] {
					t.Fatalf("workers=%d: path %d hop %d differs", workers, i, h)
				}
			}
		}
	}
}
