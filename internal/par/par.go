// Package par holds the one index-parallel loop every fan-out in the
// repository rides on: world generation, the registry snapshots, the
// ping campaign, the traceroute corpus and its hop scan, the alias
// plane, the pipeline's per-membership steps and the artefact suite.
// Tasks write only to slots owned by their indexes, so scheduling can
// never affect the output.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls f(lo, hi) over consecutive ranges that together cover
// [0, n) exactly once. Each range is one claim of chunk >= 1 indexes
// (the last may be shorter) and starts at a multiple of chunk, so a
// caller that keeps per-chunk output can index it by lo/chunk. workers <= 0
// means GOMAXPROCS; the pool never exceeds ceil(n/chunk) workers, and
// a pool of one runs inline. The chunk is the caller's grain: it
// should amortise whatever f sets up per call (a scratch, an RNG
// source) against the balance of the tail. f must touch only state
// owned by its indexes; Do returns when every call has completed.
func Do(workers, n, chunk int, f func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if claims := (n + chunk - 1) / chunk; workers > claims {
		workers = claims
	}
	if workers <= 1 {
		for lo := 0; lo < n; lo += chunk {
			f(lo, min(lo+chunk, n))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				f(lo, min(lo+chunk, n))
			}
		}()
	}
	wg.Wait()
}
