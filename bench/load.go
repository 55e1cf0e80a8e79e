package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poisson returns the due offsets of n arrivals of a Poisson process at
// rate per second. Arrivals are independent, as a user population's
// are; a fixed period would phase-lock reads to applies.
func poisson(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// sample is one open-loop request. Latency runs from the due time, not
// the send time: a stall that holds later requests back is charged to
// them, as their users would feel it.
type sample struct {
	late time.Duration // send − due: how far behind the generator ran
	lat  time.Duration // done − due
	svc  time.Duration // done − send
	ok   bool
}

// openLoop issues request i at start+due[i] on whichever client is free
// first. A request that falls due while every client is busy waits for
// one, and the wait counts against it. issue reports whether the
// request succeeded and passed its checks.
func openLoop(start time.Time, due []time.Duration, clients []*client, issue func(c *client, i int) bool) []sample {
	out := make([]sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if d := time.Until(start.Add(due[i])); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				ok := issue(c, i)
				done := time.Since(start)
				out[i] = sample{late: sent - due[i], lat: done - due[i], svc: done - sent, ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps every client busy for d, each sending its next
// request as soon as the previous one completes. A closed-loop sample's
// latency is its service time: nothing is ever due before it is sent.
func closedLoop(d time.Duration, clients []*client, issue func(c *client, i int) bool) []sample {
	start := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Since(start) < d {
				sent := time.Since(start)
				ok := issue(c, int(next.Add(1)-1))
				done := time.Since(start)
				mine = append(mine, sample{lat: done - sent, svc: done - sent, ok: ok})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// backlogAtEnd counts the requests that were due by the last due time
// but had not been sent by then: a generator that keeps up leaves none.
func backlogAtEnd(due []time.Duration, ss []sample) int {
	if len(due) == 0 {
		return 0
	}
	last := due[len(due)-1]
	n := 0
	for i, s := range ss[:len(ss)-1] {
		if due[i]+s.late > last {
			n++
		}
	}
	return n
}
