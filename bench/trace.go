package main

import (
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into a layer. Spans of one HTTP
// request share Req; the server-side span's parent is the client span.
// The allocation and GC figures are process-wide deltas over the span,
// so they are exact only for spans that ran alone (the set-up
// decomposition and the layer probes), not for overlapping requests.
type span struct {
	ID           uint64  `json:"id"`
	Parent       uint64  `json:"parent,omitempty"`
	Req          uint64  `json:"req,omitempty"`
	Name         string  `json:"name"`
	StartMs      float64 `json:"start_ms"`
	EndMs        float64 `json:"end_ms"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	AllocObjects uint64  `json:"alloc_objects"`
	GCCPUSec     float64 `json:"gc_cpu_s"`
	GCCycles     uint64  `json:"gc_cycles"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.EndMs - s.StartMs) * float64(time.Millisecond))
}

// tracer keeps spans in memory until the run ends. A nil tracer, or
// one switched off, records nothing and costs one branch per call.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// enable switches recording on or off; a nil tracer stays off.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// active is an open span; nil when nothing is being recorded.
type active struct {
	t  *tracer
	s  span
	c0 counters
}

func (t *tracer) begin(name string, parent, req uint64) *active {
	if t == nil || !t.on.Load() {
		return nil
	}
	a := &active{t: t, c0: readCounters()}
	a.s = span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name,
		StartMs: msSince(t.t0)}
	return a
}

// request opens the client span of one HTTP request; its ID is the
// request ID the server-side span shares.
func (t *tracer) request(name string) *active {
	a := t.begin(name, 0, 0)
	if a != nil {
		a.s.Req = a.s.ID
	}
	return a
}

// id is the span's ID, 0 for a span not recorded.
func (a *active) id() uint64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// end closes the span, keeps it, and returns it.
func (a *active) end() span {
	if a == nil {
		return span{}
	}
	c := readCounters()
	a.s.EndMs = msSince(a.t.t0)
	a.s.AllocBytes = c.allocBytes - a.c0.allocBytes
	a.s.AllocObjects = c.allocObjects - a.c0.allocObjects
	a.s.GCCPUSec = c.gcCPU - a.c0.gcCPU
	a.s.GCCycles = c.gcCycles - a.c0.gcCycles
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
	return a.s
}

// served returns the server-side durations of one route, in ms, for
// the traffic's requests only (a set-up's first read is not traffic).
func (t *tracer) served(route string) dist {
	t.mu.Lock()
	defer t.mu.Unlock()
	client := map[uint64]bool{}
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "client.") {
			client[s.ID] = true
		}
	}
	var d dist
	for _, s := range t.spans {
		if s.Name == "serve."+route && client[s.Parent] {
			d.add(s.dur())
		}
	}
	return d
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// serverSpans wraps the serving plane's handler in one span per
// request, named after the route's last fixed segment and linked to the
// client span through the request header.
func (t *tracer) serverSpans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		a := t.begin("serve."+routeName(r.URL.Path), req, req)
		h.ServeHTTP(w, r)
		a.end()
	})
}

// routeName maps /v1/t/w/infer to infer and /v1/t/w/report/X to report.
func routeName(path string) string {
	parts := strings.Split(strings.TrimPrefix(path, "/v1/t/"+tenant+"/"), "/")
	return parts[0]
}

// counters are the runtime/metrics totals a span reports deltas of.
type counters struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64
}

var counterNames = [4]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readCounters() counters {
	var s [4]metrics.Sample
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s[:])
	return counters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
	}
}

// liveHeap collects garbage and returns the bytes still reachable. The
// second collection frees what sync.Pool victim caches kept through the
// first.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// window is the runtime's view of one stretch of the run: GC work,
// allocation, GC pauses, scheduling delay and the heap's peak.
type window struct {
	c0     counters
	pause0 *metrics.Float64Histogram
	sched0 *metrics.Float64Histogram
	peak   atomic.Uint64
	stop   chan struct{}
	done   chan struct{}
}

const (
	pauseMetric = "/sched/pauses/total/gc:seconds"
	schedMetric = "/sched/latencies:seconds"
	heapMetric  = "/memory/classes/heap/objects:bytes"
)

// openWindow starts the window and a sampler that tracks the heap's
// peak every 10 ms until close.
func openWindow() *window {
	w := &window{c0: readCounters(), stop: make(chan struct{}), done: make(chan struct{})}
	w.pause0, w.sched0 = histograms()
	go func() {
		defer close(w.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: heapMetric}}
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > w.peak.Load() {
				w.peak.Store(v)
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func histograms() (pause, sched *metrics.Float64Histogram) {
	s := []metrics.Sample{{Name: pauseMetric}, {Name: schedMetric}}
	metrics.Read(s)
	return s[0].Value.Float64Histogram(), s[1].Value.Float64Histogram()
}

// close stops the sampler and writes the window's figures into m.
func (w *window) close(m map[string]float64) {
	close(w.stop)
	<-w.done
	c := readCounters()
	pause, sched := histograms()
	m["gc.cpu_s"] = c.gcCPU - w.c0.gcCPU
	m["gc.cycles"] = float64(c.gcCycles - w.c0.gcCycles)
	m["alloc_mb"] = float64(c.allocBytes-w.c0.allocBytes) / 1e6
	m["heap.peak_mb"] = float64(w.peak.Load()) / 1e6
	m["gc.pause_tail_ms"] = histTail(w.pause0, pause) * 1e3
	m["sched.latency_tail_ms"] = histTail(w.sched0, sched) * 1e3
}

// histTail applies the tail rule to the events two cumulative runtime
// histograms differ by, interpolating linearly inside the bucket the
// tail falls in (an open-ended bucket yields its finite edge).
func histTail(before, after *metrics.Float64Histogram) float64 {
	counts := make([]uint64, len(after.Counts))
	var n uint64
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		n += counts[i]
	}
	if n == 0 {
		return 0
	}
	target := math.Ceil(tailQ(int(n)) * float64(n))
	var cum uint64
	for i, c := range counts {
		if c == 0 || float64(cum+c) < target {
			cum += c
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		switch {
		case math.IsInf(hi, 1):
			return lo
		case math.IsInf(lo, -1):
			return hi
		}
		return lo + (hi-lo)*(target-float64(cum))/float64(c)
	}
	return 0
}
