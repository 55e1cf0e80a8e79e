// Package admission is the overload valve of the serving plane:
// per-endpoint-class concurrency limits with a bounded, deadline-aware
// wait queue in front of each, and load shedding once the queue is
// full. The design goal is that the server's answer to saturation is
// a fast 503 (+ Retry-After upstream), never an unbounded queue whose
// latency grows until every caller times out anyway.
//
// Work is divided into classes because the endpoints have wildly
// different costs: a per-IXP report is a filtered map walk, a full
// wire report marshals the whole world, an apply holds the engine's
// write lock through a re-inference, and a stream parks a goroutine
// for minutes. One shared limit would let the cheap traffic starve
// behind the expensive traffic (or vice versa); per-class gates keep
// each population independently bounded.
//
// Admission order inside one class is slot-first, then FIFO-free
// queue: an arriving request takes a free slot immediately; otherwise
// it waits — bounded by the queue cap, its own context deadline, and
// the class's MaxWait — for a slot to free up. A request that would
// push the queue past its cap is shed immediately with ErrOverloaded;
// a queued request whose wait expires is shed the same way; a queued
// request whose caller disconnects leaves with the context's error.
package admission

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded is returned when a request is shed: every slot busy
// and the wait queue full, or the bounded wait expired before a slot
// freed. The caller should answer 503 with a Retry-After hint.
var ErrOverloaded = errors.New("admission: overloaded, try again")

// Class buckets requests by cost profile.
type Class int

const (
	// Cheap is the light read traffic: per-IXP reports, small queries.
	Cheap Class = iota
	// Read is the heavy read traffic: full wire-report marshals.
	Read
	// Write is the mutating traffic: applies, which serialize behind
	// the engine's write lock.
	Write
	// Stream is the long-lived subscription traffic (SSE). Streams
	// never queue: a free slot or an immediate 503.
	Stream
	numClasses
)

// String names a class for metrics and logs.
func (c Class) String() string {
	switch c {
	case Cheap:
		return "cheap"
	case Read:
		return "read"
	case Write:
		return "write"
	case Stream:
		return "stream"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Limits bounds one class.
type Limits struct {
	// Slots is the number of requests of this class allowed to run
	// concurrently.
	Slots int
	// Queue is how many requests may wait for a slot; an arrival
	// beyond Slots+Queue is shed immediately.
	Queue int
	// MaxWait caps how long a queued request waits before it is shed,
	// independent of (and in addition to) its own context deadline.
	// Zero means "wait as long as the context allows".
	MaxWait time.Duration
}

// Config bounds every class.
type Config struct {
	Cheap, Read, Write, Stream Limits

	// TenantShare caps the fraction of any class's slots one tenant
	// may occupy under AdmitTenant (admitted plus queued), so a hot
	// tenant cannot starve its siblings. Zero takes
	// DefaultTenantShare; >= 1 disables the fairness cap.
	TenantShare float64
}

// DefaultConfig scales the limits to the machine: cheap reads fan out
// wide (each writes byte ranges of the report plane), full-report reads
// are bounded tighter (each writes the whole report, and the first of a
// publication encodes it), applies keep a short
// queue (they serialize anyway — queue depth is pure latency), and
// streams get a generous but finite population.
func DefaultConfig() Config {
	ncpu := runtime.GOMAXPROCS(0)
	return Config{
		Cheap:  Limits{Slots: 8 * ncpu, Queue: 16 * ncpu, MaxWait: 2 * time.Second},
		Read:   Limits{Slots: 2 * ncpu, Queue: 4 * ncpu, MaxWait: 2 * time.Second},
		Write:  Limits{Slots: 1, Queue: 2 * ncpu, MaxWait: 5 * time.Second},
		Stream: Limits{Slots: 64 * ncpu, Queue: 0},
	}
}

// merged fills zero-valued classes of cfg from the defaults, so a
// caller can override one class without restating the rest.
func merged(cfg Config) Config {
	def := DefaultConfig()
	pick := func(l, d Limits) Limits {
		if l.Slots <= 0 {
			return d
		}
		return l
	}
	return Config{
		Cheap:       pick(cfg.Cheap, def.Cheap),
		Read:        pick(cfg.Read, def.Read),
		Write:       pick(cfg.Write, def.Write),
		Stream:      pick(cfg.Stream, def.Stream),
		TenantShare: cfg.TenantShare,
	}
}

// gate is one class's semaphore plus its counters.
type gate struct {
	limits Limits
	slots  chan struct{}

	inflight atomic.Int64
	queued   atomic.Int64
	admitted atomic.Uint64
	shed     atomic.Uint64 // queue full or wait expired
	canceled atomic.Uint64 // caller gone while queued
}

// Controller admits requests against per-class gates, with optional
// per-tenant fairness and attribution (see AdmitTenant in tenant.go).
type Controller struct {
	gates   [numClasses]*gate
	share   float64  // one tenant's max share of a class's slots
	tenants sync.Map // string -> *tenantState
}

// New builds a controller; zero-valued classes in cfg take defaults.
func New(cfg Config) *Controller {
	cfg = merged(cfg)
	c := &Controller{share: cfg.TenantShare}
	if c.share <= 0 {
		c.share = DefaultTenantShare
	}
	for cl, l := range map[Class]Limits{Cheap: cfg.Cheap, Read: cfg.Read, Write: cfg.Write, Stream: cfg.Stream} {
		g := &gate{limits: l, slots: make(chan struct{}, l.Slots)}
		c.gates[cl] = g
	}
	return c
}

// Admit asks for a slot in class cl. On success it returns a release
// function the caller must invoke exactly once when the work is done.
// On failure it returns ErrOverloaded (shed: answer 503) or the
// context's error wrapped (caller gone: nothing to answer).
func (c *Controller) Admit(ctx context.Context, cl Class) (release func(), err error) {
	g := c.gates[cl]
	select {
	case g.slots <- struct{}{}:
		return g.admit(), nil
	default:
	}
	// No free slot: queue, unless the queue is full or this class
	// never queues.
	if g.limits.Queue <= 0 || g.queued.Add(1) > int64(g.limits.Queue) {
		if g.limits.Queue > 0 {
			g.queued.Add(-1)
		}
		g.shed.Add(1)
		return nil, fmt.Errorf("%w (%s: %d running, %d queued)", ErrOverloaded, cl, g.inflight.Load(), g.queued.Load())
	}
	defer g.queued.Add(-1)

	var expire <-chan time.Time
	if g.limits.MaxWait > 0 {
		t := time.NewTimer(g.limits.MaxWait)
		defer t.Stop()
		expire = t.C
	}
	select {
	case g.slots <- struct{}{}:
		return g.admit(), nil
	case <-expire:
		g.shed.Add(1)
		return nil, fmt.Errorf("%w (%s: queued longer than %s)", ErrOverloaded, cl, g.limits.MaxWait)
	case <-ctx.Done():
		g.canceled.Add(1)
		return nil, fmt.Errorf("admission: %s request abandoned while queued: %w", cl, ctx.Err())
	}
}

// admit finalizes a successful slot acquisition.
func (g *gate) admit() func() {
	g.inflight.Add(1)
	g.admitted.Add(1)
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			g.inflight.Add(-1)
			<-g.slots
		}
	}
}

// ClassStats is one class's live counters.
type ClassStats struct {
	Inflight int64  `json:"inflight"`
	Queued   int64  `json:"queued"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Canceled uint64 `json:"canceled"`
}

// Stats snapshots every class.
type Stats map[string]ClassStats

// Stats returns the live counters per class name.
func (c *Controller) Stats() Stats {
	out := make(Stats, numClasses)
	for cl := Class(0); cl < numClasses; cl++ {
		g := c.gates[cl]
		out[cl.String()] = ClassStats{
			Inflight: g.inflight.Load(),
			Queued:   g.queued.Load(),
			Admitted: g.admitted.Load(),
			Shed:     g.shed.Load(),
			Canceled: g.canceled.Load(),
		}
	}
	return out
}

// TotalShed sums the shed counters across classes.
func (c *Controller) TotalShed() uint64 {
	var n uint64
	for cl := Class(0); cl < numClasses; cl++ {
		n += c.gates[cl].shed.Load()
	}
	return n
}

// Expvar renders the live stats as an expvar.Var; the serving binary
// publishes it as "rpi.admission" next to rpi.dropped_updates. The
// counters are broken out twice: "classes" is the per-endpoint-class
// view, "tenants" attributes the same traffic per tenant per class, so
// shedding is traceable to the tenant causing it.
func (c *Controller) Expvar() expvar.Var {
	return expvar.Func(func() interface{} {
		return map[string]interface{}{
			"classes": c.Stats(),
			"tenants": c.TenantStats(),
		}
	})
}
