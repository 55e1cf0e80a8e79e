// Package supervisor keeps the serving plane alive across internal
// engine faults. A Guard owns the atomic engine pointer the HTTP
// front end reads through, and turns the two ways an engine dies —
// a panic escaping Apply, or the write-ahead log declaring itself
// broken (rpi.ErrPersistence) — into a *quarantine* instead of a dead
// process:
//
//	healthy ──panic/persistence fault──▶ quarantined ──re-Open ok──▶ healthy'
//	                                        │   ▲
//	                                        └───┘ re-Open failed: back off, retry
//
// While quarantined, reads keep serving the last good snapshot (the
// engine's report pointer is only ever swapped after a fully
// successful apply, so it is trustworthy even when the substrate
// underneath is half-mutated), writes answer ErrQuarantined (503
// upstream), and a background goroutine re-Opens the engine from the
// data directory — the PR 6 durability contract guarantees the
// recovered state is exactly the acknowledged prefix. The recovered
// engine is swapped in through the same atomic pointer and the plane
// is writable again; the process never exits.
//
// Sequence continuity is asserted on every recovery: the recovered
// seq must be at least the highest acknowledged seq (no acknowledged
// delta may be lost) and at most one past it (only the in-flight
// delta that was journaled but never acknowledged may surface).
// Violations are counted and logged — they would mean the WAL broke
// its contract.
package supervisor

import (
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"rpeer/pkg/rpi"
)

// ErrQuarantined is returned for writes while the engine is healing
// (and for writes that themselves triggered the quarantine). Upstream
// maps it to 503 + Retry-After; reads are unaffected.
var ErrQuarantined = errors.New("supervisor: engine quarantined, recovering")

// Reopen rebuilds an engine from durable state (rpi.Open over the
// same data directory and base inputs). It runs on the supervisor's
// recovery goroutine, possibly many times.
type Reopen func() (*rpi.Engine, *rpi.RecoveryInfo, error)

// Options configures a Guard.
type Options struct {
	// Reopen is how a quarantined engine heals (required).
	Reopen Reopen
	// RetryInterval is the base backoff between failed re-Opens
	// (default 1s, doubling to 10x).
	RetryInterval time.Duration
	// Logger receives quarantine and recovery events (default
	// log.Default()).
	Logger *log.Logger
}

// published is the read state captured from a healthy engine: the
// report plus the engine's IXP roster (fixed at construction:
// membership deltas never touch the prefix plane), so reads keep their
// 404 semantics while the engine itself cannot be trusted.
type published struct {
	rep  *rpi.Report
	seq  uint64
	ixps []string
}

// Guard supervises one replaceable engine.
type Guard struct {
	opts Options

	eng      atomic.Pointer[rpi.Engine]
	lastGood atomic.Pointer[published]
	gen      atomic.Uint64
	sick     atomic.Bool

	// acked is the highest delta seq a caller has been told succeeded
	// (or the recovery seq of the last publication).
	acked atomic.Uint64

	faults     atomic.Uint64
	recoveries atomic.Uint64
	violations atomic.Uint64
	lastFault  atomic.Value // string

	mu     sync.Mutex // quarantine/publish/close transitions
	closed bool
	stop   chan struct{}
}

// New builds a Guard serving eng, its first engine. It panics without
// opts.Reopen.
func New(eng *rpi.Engine, opts Options) *Guard {
	if opts.Reopen == nil {
		panic("supervisor: Options.Reopen is required")
	}
	if opts.RetryInterval <= 0 {
		opts.RetryInterval = time.Second
	}
	if opts.Logger == nil {
		opts.Logger = log.Default()
	}
	g := &Guard{opts: opts, stop: make(chan struct{})}
	g.publishLocked(eng)
	return g
}

// Publish installs a replacement engine and clears any quarantine.
func (g *Guard) Publish(eng *rpi.Engine) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.publishLocked(eng)
}

func (g *Guard) publishLocked(eng *rpi.Engine) {
	rep, seq := eng.SnapshotSeq()
	g.lastGood.Store(&published{rep: rep, seq: seq, ixps: eng.IXPs()})
	g.acked.Store(seq)
	g.eng.Store(eng)
	g.gen.Add(1)
	g.sick.Store(false)
}

// Engine returns the current engine. During a quarantine it still
// returns the sick engine — Snapshot on it is safe; anything touching
// the substrate is not, which is why reads go through the Guard's
// methods instead.
func (g *Guard) Engine() *rpi.Engine { return g.eng.Load() }

// Quarantined reports whether the engine is currently healing.
func (g *Guard) Quarantined() bool { return g.sick.Load() }

// Generation counts publications; it bumps on every engine swap, so
// per-engine caches key on it.
func (g *Guard) Generation() uint64 { return g.gen.Load() }

// Stats is the guard's observable state.
type Stats struct {
	Quarantined          bool   `json:"quarantined"`
	Generation           uint64 `json:"generation"`
	AckedSeq             uint64 `json:"acked_seq"`
	Faults               uint64 `json:"faults"`
	Recoveries           uint64 `json:"recoveries"`
	ContinuityViolations uint64 `json:"continuity_violations"`
	LastFault            string `json:"last_fault,omitempty"`
}

// Stats snapshots the guard.
func (g *Guard) Stats() Stats {
	s := Stats{
		Quarantined:          g.sick.Load(),
		Generation:           g.gen.Load(),
		AckedSeq:             g.acked.Load(),
		Faults:               g.faults.Load(),
		Recoveries:           g.recoveries.Load(),
		ContinuityViolations: g.violations.Load(),
	}
	if v, ok := g.lastFault.Load().(string); ok {
		s.LastFault = v
	}
	return s
}

// Published returns the current report together with the publication
// generation and the delta seq the report reflects, all coherent with
// one another: the (generation, seq) pair uniquely keys the report's
// bytes, which is what the serving plane's report byte plane rides
// on. While quarantined it returns the last good publication (whose
// seq stopped moving when the engine did).
func (g *Guard) Published() (rep *rpi.Report, gen, seq uint64) {
	for {
		eng := g.eng.Load()
		gen = g.gen.Load()
		if g.sick.Load() {
			last := g.lastGood.Load()
			rep, seq = last.rep, last.seq
		} else {
			rep, seq = eng.SnapshotSeq()
		}
		// A recovery swapping the engine mid-read could pair the new
		// engine's report with the old generation number (or vice
		// versa); re-read until the generation was stable around the
		// whole capture. Swaps are rare, so this loops ~never.
		if g.gen.Load() == gen {
			return rep, gen, seq
		}
	}
}

// IXPs returns the IXP roster of the engine last published, sorted by
// name: the IXPs a per-IXP read answers for, healthy or quarantined.
func (g *Guard) IXPs() []string { return g.lastGood.Load().ixps }

// Apply forwards a delta to the current engine with the quarantine
// net underneath: a panic escaping the engine, or the engine declaring
// its persistence broken, quarantines the engine and starts background
// recovery instead of killing the process. The triggering caller gets
// ErrQuarantined (wrapping the original fault).
func (g *Guard) Apply(ctx context.Context, d rpi.Delta) (up *rpi.Update, err error) {
	eng := g.eng.Load()
	if g.sick.Load() {
		return nil, ErrQuarantined
	}
	gen := g.gen.Load()
	defer func() {
		if r := recover(); r != nil {
			g.quarantine(gen, eng, fmt.Sprintf("panic in Apply: %v", r), debug.Stack())
			up, err = nil, fmt.Errorf("%w: apply panicked: %v", ErrQuarantined, r)
		}
	}()
	up, err = eng.Apply(ctx, d)
	switch {
	case err == nil:
		g.noteGood(eng, up.Seq)
	case errors.Is(err, rpi.ErrPersistence):
		// The log can no longer be appended to: this engine will never
		// accept a write again, but the durable prefix is intact —
		// re-Open it.
		g.quarantine(gen, eng, "persistence fault: "+err.Error(), nil)
		err = fmt.Errorf("%w: %v", ErrQuarantined, err)
	}
	return up, err
}

// noteGood records a successful apply: the new report becomes the last
// good state and the seq is acknowledged.
func (g *Guard) noteGood(eng *rpi.Engine, seq uint64) {
	last := g.lastGood.Load()
	rep, engSeq := eng.SnapshotSeq()
	g.lastGood.Store(&published{rep: rep, seq: engSeq, ixps: last.ixps})
	for {
		cur := g.acked.Load()
		if seq <= cur || g.acked.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// quarantine transitions to the quarantined state (exactly once per
// generation), abandons the sick engine and starts recovery.
func (g *Guard) quarantine(gen uint64, eng *rpi.Engine, reason string, stack []byte) {
	g.mu.Lock()
	if g.closed || g.gen.Load() != gen || g.sick.Load() {
		// Stale trigger: a concurrent fault already quarantined this
		// generation, or a recovery already replaced the engine.
		g.mu.Unlock()
		return
	}
	g.sick.Store(true)
	g.faults.Add(1)
	g.lastFault.Store(reason)
	g.mu.Unlock()

	if stack != nil {
		g.opts.Logger.Printf("supervisor: quarantining engine (gen %d): %s\n%s", gen, reason, stack)
	} else {
		g.opts.Logger.Printf("supervisor: quarantining engine (gen %d): %s", gen, reason)
	}
	// Abandon closes the WAL so the successor can own the directory,
	// and wakes every subscriber (their channels close — streaming
	// clients resynchronize from the snapshot after recovery). The
	// engine may be arbitrarily corrupt; don't let its failure modes
	// escape.
	func() {
		defer func() {
			if r := recover(); r != nil {
				g.opts.Logger.Printf("supervisor: abandon panicked: %v", r)
			}
		}()
		eng.Abandon()
	}()
	go g.recoverLoop(gen)
}

// recoverLoop re-Opens the engine until it succeeds (or the guard
// closes), then publishes the recovered engine.
func (g *Guard) recoverLoop(gen uint64) {
	backoff := g.opts.RetryInterval
	for attempt := 1; ; attempt++ {
		eng, info, err := g.safeReopen()
		if err == nil {
			acked := g.acked.Load()
			if info.Seq < acked || info.Seq > acked+1 {
				// The durability contract allows losing only the one
				// in-flight delta that was never acknowledged.
				g.violations.Add(1)
				g.opts.Logger.Printf("supervisor: SEQUENCE CONTINUITY VIOLATION: recovered seq %d, acknowledged %d (want %d or %d)",
					info.Seq, acked, acked, acked+1)
			}
			g.mu.Lock()
			if g.closed || g.gen.Load() != gen {
				g.mu.Unlock()
				_ = eng.Close()
				return
			}
			g.publishLocked(eng)
			g.recoveries.Add(1)
			g.mu.Unlock()
			g.opts.Logger.Printf("supervisor: recovered after %d attempt(s): seq %d (replayed %d), writable again",
				attempt, info.Seq, info.Replayed)
			return
		}
		g.opts.Logger.Printf("supervisor: re-open attempt %d failed: %v (retrying in %s)", attempt, err, backoff)
		select {
		case <-g.stop:
			return
		case <-time.After(backoff):
		}
		if backoff < 10*g.opts.RetryInterval {
			backoff *= 2
		}
	}
}

// safeReopen shields the recovery goroutine from a reopen that panics
// (a deterministic engine bug reproducing during replay must keep the
// supervisor retrying/backing off, not kill the process).
func (g *Guard) safeReopen() (eng *rpi.Engine, info *rpi.RecoveryInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			eng, info, err = nil, nil, fmt.Errorf("reopen panicked: %v", r)
		}
	}()
	return g.opts.Reopen()
}

// Close shuts the guard down: the recovery loop stops and the current
// engine (if healthy) closes cleanly, publishing its final snapshot.
// A quarantined engine was already abandoned; its durable state is the
// acknowledged prefix and needs no further action.
func (g *Guard) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	close(g.stop)
	eng := g.eng.Load()
	sick := g.sick.Load()
	g.mu.Unlock()
	if sick {
		return nil
	}
	return eng.Close()
}
