package par

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestDoVisitsEveryIndexOnce checks the range contract over a grid of
// pool sizes, lengths and grains: every index in [0, n) is covered by
// exactly one call, and every call's range is one aligned claim.
func TestDoVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			for _, chunk := range []int{1, 3, 64, 4096} {
				hits := make([]atomic.Int32, n)
				var bad atomic.Int32
				Do(workers, n, chunk, func(lo, hi int) {
					if lo%chunk != 0 || hi <= lo || hi > n || (hi-lo != chunk && hi != n) {
						bad.Add(1)
					}
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				})
				if bad.Load() != 0 {
					t.Errorf("workers=%d n=%d chunk=%d: %d malformed ranges", workers, n, chunk, bad.Load())
				}
				for i := range hits {
					if h := hits[i].Load(); h != 1 {
						t.Errorf("workers=%d n=%d chunk=%d: index %d visited %d times", workers, n, chunk, i, h)
						break
					}
				}
			}
		}
	}
}

// TestDoRunsClaimsConcurrently pins that a grain of one spreads two
// indexes over two workers: the call for index 0 blocks until the call
// for index 1 has started, which one worker taking both would never
// reach.
func TestDoRunsClaimsConcurrently(t *testing.T) {
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Do(2, 2, 1, func(lo, _ int) {
			if lo == 1 {
				close(started)
				return
			}
			<-started
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("f(0, 1) never saw f(1, 2) start: the two indexes ran on one worker")
	}
}
