package registry

import (
	"runtime"
	"testing"
)

// TestBuildWorkersIdentical pins the registry fan-out: per-(source,
// IXP) streams make the merged dataset identical for every worker
// count.
func TestBuildWorkersIdentical(t *testing.T) {
	w := world(t)
	ref := Build(w, DefaultNoise(), 42, 1)
	for _, workers := range []int{4, runtime.NumCPU()} {
		got := Build(w, DefaultNoise(), 42, workers)
		if len(got.IfaceASN) != len(ref.IfaceASN) || len(got.PrefixIXP) != len(ref.PrefixIXP) {
			t.Fatalf("workers=%d: dataset sizes differ", workers)
		}
		for ip, asn := range ref.IfaceASN {
			if got.IfaceASN[ip] != asn {
				t.Fatalf("workers=%d: %v maps to AS%d, want AS%d", workers, ip, got.IfaceASN[ip], asn)
			}
		}
		for ip, name := range ref.IfaceIXP {
			if got.IfaceIXP[ip] != name {
				t.Fatalf("workers=%d: %v IXP differs", workers, ip)
			}
		}
		for k, v := range ref.Ports {
			if got.Ports[k] != v {
				t.Fatalf("workers=%d: port %v differs", workers, k)
			}
		}
		for i, st := range ref.Stats {
			if got.Stats[i] != st {
				t.Fatalf("workers=%d: stats row %d differs: %+v vs %+v", workers, i, got.Stats[i], st)
			}
		}
	}
}
