// Package rpi is the public SDK of the remote peering inference
// system: the stable, importable surface over the five-step
// methodology of internal/core.
//
// The central type is the Engine, a long-lived inference instance.
// Where the internal pipeline is built for frozen inputs and one-shot
// batch runs, the engine is built for the world as it actually
// behaves: IXP memberships churn, ping campaigns refresh, and
// consumers want the current verdicts — not a rebuild-from-scratch
// every time a member joins. New assembles the shared inference
// substrate once; Apply absorbs world deltas incrementally
// (invalidating only the state a delta can reach); Snapshot returns
// the current report; Subscribe streams per-membership verdict changes
// as deltas land.
//
//	eng, err := rpi.New(inputs, rpi.WithWorkers(8))
//	...
//	rep := eng.Snapshot()
//	updates, cancel := eng.Subscribe(16)
//	res, err := eng.Apply(ctx, delta)
//
// Reports cross process boundaries through the versioned JSON wire
// schema (MarshalReport / UnmarshalReport); cmd/rpi-serve serves it
// over HTTP as a tenant host, one supervised engine per tenant.
package rpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"rpeer/internal/core"
	"rpeer/internal/pingsim"
)

// Engine is a long-lived inference instance over one evolving input
// world. All methods are safe for concurrent use: Apply takes the write
// lock, queries over the substrate share the read lock, and reads of
// the current report take no lock at all.
type Engine struct {
	mu  sync.RWMutex
	ctx *core.Context
	cfg config
	// pub is the current publication. Apply stores a new one once its
	// report is complete, before fan-out; Snapshot and SnapshotSeq load
	// it without taking mu, so a read that arrives during an apply
	// serves the previous publication instead of waiting.
	pub atomic.Pointer[publication]
	// pers is the durable half of a persistent engine (Open); nil for
	// the in-memory engines New and Replay build.
	pers *persister

	subMu   sync.Mutex
	subs    map[int]chan Update
	nextSub int
	closed  bool
	// dropped counts updates shed from slow subscribers (see
	// Subscribe); guarded by subMu.
	dropped uint64
}

// publication is one report together with the delta seq it reflects.
type publication struct {
	rep *core.Report
	seq uint64
}

// New validates the inputs, builds the shared inference substrate and
// runs the configured pipeline once. The engine takes ownership of the
// registry dataset via a private clone — the caller's Inputs stay
// frozen no matter how many deltas are applied later.
func New(in Inputs, opts ...Option) (*Engine, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if in.World == nil || in.Dataset == nil || in.Colo == nil {
		return nil, fmt.Errorf("%w: World, Dataset and Colo are required", ErrMissingInput)
	}
	in.Dataset = in.Dataset.Clone()
	ctx, err := core.NewContext(in)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMissingInput, err)
	}
	return buildEngine(ctx, cfg, 0)
}

// buildEngine finishes engine construction over a ready (possibly
// recovered) context at delta sequence seq: the initial pipeline run.
func buildEngine(ctx *core.Context, cfg config, seq uint64) (*Engine, error) {
	rep, err := ctx.Run(cfg.opt)
	if err != nil {
		return nil, err
	}
	e := &Engine{ctx: ctx, cfg: cfg, subs: make(map[int]chan Update)}
	e.pub.Store(&publication{rep: rep, seq: seq})
	return e, nil
}

// Snapshot returns the current report. The report is shared and must
// be treated as read-only; it stays internally consistent forever (an
// Apply swaps in a fresh report rather than mutating the old one).
// It takes no lock: during an Apply it returns the previous report.
func (e *Engine) Snapshot() *Report {
	return e.pub.Load().rep
}

// SnapshotSeq returns the current report together with the delta
// sequence it reflects, read from one atomic publication: the pair is
// coherent even while concurrent Applies land, and the read never
// waits on one (until an Apply has published, it returns the previous
// pair). Serving-plane caches key report bytes on this seq.
func (e *Engine) SnapshotSeq() (*Report, uint64) {
	p := e.pub.Load()
	return p.rep, p.seq
}

// Seq returns the number of deltas applied so far, as published: like
// SnapshotSeq it takes no lock.
func (e *Engine) Seq() uint64 {
	return e.pub.Load().seq
}

// IXPs returns the IXP roster, sorted by name: the IXPs ReportFor
// answers for. It is fixed at construction and shared: read-only.
func (e *Engine) IXPs() []string { return e.ctx.IXPs() }

// Inputs returns the engine's current view of the inputs: the dataset
// clone with all applied membership churn, and the campaign with all
// applied overrides. Building a cold engine over these inputs yields a
// byte-identical report (the incremental-update contract).
//
// The returned maps are the engine's live state and must be treated
// as strictly read-only: writing to them bypasses Apply's validation
// (and the invariants the incremental path depends on), and a later
// Apply mutates them underneath the caller. All change goes through
// Apply.
func (e *Engine) Inputs() Inputs {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ctx.Inputs()
}

// Context exposes the underlying core context for in-module consumers
// (the experiment harness, benchmarks). SDK users should not need it.
func (e *Engine) Context() *core.Context {
	return e.ctx
}

// VP resolves a vantage point of the campaign roster by ID, the form
// /v1/apply bodies and WAL records name it in (core.Context.VP).
func (e *Engine) VP(id int) (*pingsim.VP, bool) { return e.ctx.VP(id) }

// Baseline computes the Castro et al. RTT-threshold baseline over the
// current substrate at the configured threshold (WithThreshold). Each
// call builds a fresh report; nothing is cached.
func (e *Engine) Baseline() (*Report, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ctx.Baseline(e.cfg.threshold)
}

// RunStep evaluates one methodology step in isolation over the shared
// substrate (the per-step rows of the paper's Table 4).
func (e *Engine) RunStep(s Step) (*Report, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rep, err := e.ctx.RunStep(e.cfg.opt, s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownStep, err)
	}
	return rep, nil
}

// ReportFor returns the current verdicts of one IXP (see FilterIXP).
func (e *Engine) ReportFor(ctx context.Context, ixp string) (*Report, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if !e.ctx.HasIXP(ixp) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownIXP, ixp)
	}
	return FilterIXP(ctx, e.Snapshot(), ixp)
}

// FilterIXP returns the verdicts of one IXP in rep: its inferences and
// the multi-IXP routers present there. The inferences are rep's row
// range for the IXP (Report.ForIXP), so it costs no walk over the
// other rows. A caller that is already gone gets ErrCanceled. It does
// not check that rep knows ixp; callers hold their own IXP index.
func FilterIXP(ctx context.Context, rep *Report, ixp string) (*Report, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return rep.ForIXP(ixp), nil
}

// ctxErr converts a context cancellation into the SDK's typed error.
// A nil context means "no deadline" (package-internal callers only;
// the public methods always receive one).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	return nil
}

// Apply absorbs a world delta — membership joins and leaves, refreshed
// RTT aggregates — into the engine: the affected substrate is patched
// in place (see core.Context.Apply for the invalidation rules), the
// pipeline re-runs over the warm context, and the per-membership
// verdict changes are returned and fanned out to subscribers.
//
// The resulting report is byte-identical (under MarshalReport) to what
// a cold New over the post-delta Inputs would produce, at a fraction
// of the cost: the corpus scan, campaign fold, geometry and memo
// warm-up are not repeated.
//
// ctx bounds the commitment point, not the mutation: a caller that is
// already gone when the write lock is finally acquired gets ErrCanceled
// and the engine state (memory and log) is untouched — the 30ms–500ms
// re-inference is never started for a dead request. Once the delta is
// journaled the apply runs to completion regardless of ctx, because a
// logged delta must be reflected in memory (the durability contract of
// persist.go).
func (e *Engine) Apply(ctx context.Context, d Delta) (*Update, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if e.isClosed() {
		return nil, ErrClosed
	}
	cur := e.pub.Load()
	if d.Empty() {
		// Nothing to absorb: skip the re-run, keep the sequence.
		return &Update{Seq: cur.seq}, nil
	}
	d, err := e.resolveVPs(d)
	if err != nil {
		return nil, err
	}
	var v core.Validated
	if e.pers != nil {
		// Validate → log → mutate: logDelta validates the resolved
		// delta (so the record it journals is guaranteed to apply on
		// replay) and appends it under the configured fsync policy. If
		// the append fails, nothing was mutated and persistence is
		// declared broken — the durable state stays the acknowledged
		// prefix.
		v, err = e.logDelta(d)
	} else {
		v, err = e.validate(d)
	}
	if err != nil {
		return nil, err
	}
	if e.cfg.applyHook != nil {
		// Fault-injection seam (WithApplyHook): runs at the riskiest
		// point of the lifecycle — delta journaled, memory not yet
		// mutated — so a hook-raised panic models an engine bug whose
		// delta is already durable.
		e.cfg.applyHook(cur.seq+1, d)
	}
	if err := e.ctx.ApplyValidated(v); err != nil {
		if e.pers != nil {
			// Validated, logged, yet failed to apply: a bug, but the
			// log now disagrees with memory — freeze the durable state.
			e.pers.broken = fmt.Errorf("delta %d logged but failed to apply: %v", cur.seq+1, err)
		}
		return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	rep, err := e.ctx.Run(e.cfg.opt)
	if err != nil {
		return nil, err
	}
	next := &publication{rep: rep, seq: cur.seq + 1}
	e.pub.Store(next)
	e.maybeSnapshot()
	up := diffReports(next.seq, cur.rep, rep)
	up.Joined, up.Left, up.RTTRefreshed = len(d.Joins), len(d.Leaves), len(d.Ping)
	e.publish(*up)
	return up, nil
}

// validate checks a resolved delta against the engine's context; the
// token it returns applies the delta without checking it again.
func (e *Engine) validate(d Delta) (core.Validated, error) {
	v, err := e.ctx.ValidateDelta(core.Delta(d))
	if err != nil {
		return core.Validated{}, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	return v, nil
}

// resolveVPs fills measured RTT overrides that carry no vantage point
// with the interface's current best VP. Resolution happens here, under
// the apply lock, so a concurrent apply cannot slip between "read the
// current VP" and "apply the override" (which could resurrect a
// just-revoked measurement with a stale vantage point). The caller's
// delta is not mutated.
func (e *Engine) resolveVPs(d Delta) (Delta, error) {
	needs := false
	for _, ov := range d.Ping {
		if ov.BestVP == nil && !math.IsNaN(ov.RTTMinMs) {
			needs = true
			break
		}
	}
	if !needs {
		return d, nil
	}
	resolved := make(map[netip.Addr]pingsim.IfaceAgg, len(d.Ping))
	for ip, ov := range d.Ping {
		if ov.BestVP == nil && !math.IsNaN(ov.RTTMinMs) {
			// The context's per-interface index already reflects every
			// applied delta; an O(1) lookup, not a campaign re-fold.
			vp, ok := e.ctx.BestVP(ip)
			if !ok {
				return d, fmt.Errorf("%w: %s has no current vantage point; name one", ErrBadDelta, ip)
			}
			ov.BestVP = vp
		}
		resolved[ip] = ov
	}
	d.Ping = resolved
	return d, nil
}

// Subscribe registers a verdict-change listener. Every Apply delivers
// one Update; a subscriber that falls more than buf updates behind has
// the oldest pending updates dropped (the engine never blocks on a
// slow consumer).
//
// Drop semantics: shedding is per-subscriber and oldest-first — a slow
// consumer loses the earliest updates it had not read, and always
// receives the most recent one. A consumer that must not miss changes
// should either size buf for its worst-case lag or treat any gap in
// Update.Seq as a signal to resynchronize from Snapshot(). Every shed
// update increments the engine-wide counter behind DroppedUpdates
// (exported as the rpi.dropped_updates expvar by cmd/rpi-serve).
//
// The returned cancel function unregisters and closes the channel; it
// is safe to call more than once.
func (e *Engine) Subscribe(buf int) (<-chan Update, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan Update, buf)
	e.subMu.Lock()
	defer e.subMu.Unlock()
	if e.closed {
		close(ch)
		return ch, func() {}
	}
	id := e.nextSub
	e.nextSub++
	e.subs[id] = ch
	return ch, func() {
		e.subMu.Lock()
		defer e.subMu.Unlock()
		if c, ok := e.subs[id]; ok {
			delete(e.subs, id)
			close(c)
		}
	}
}

// Close shuts the engine down: subscriber channels are closed and
// further Apply calls fail with ErrClosed. Queries keep serving the
// last snapshot. A persistent engine publishes a final snapshot (so
// the next Open replays nothing) and syncs and closes its log; the
// returned error reports any failure to do so — the log itself is
// still intact, so recovery replays the tail instead.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.subMu.Lock()
	alreadyClosed := e.closed
	e.closed = true
	for id, ch := range e.subs {
		delete(e.subs, id)
		close(ch)
	}
	e.subMu.Unlock()
	if alreadyClosed || e.pers == nil {
		return nil
	}
	var err error
	if e.pers.broken == nil && e.pers.lastSnap != e.Seq() {
		err = e.snapshotLocked(false)
	}
	if cerr := e.pers.w.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("%w: close log: %v", ErrPersistence, cerr)
	}
	return err
}

// Abandon kills the engine after an internal fault without trusting
// any of its in-memory state: no final snapshot is published (the
// columns may be half-mutated by the panicking Apply), the write-ahead
// log is closed so a successor engine can recover the directory, every
// subscriber channel closes, and all further Applies fail with
// ErrClosed. Queries keep serving the last published report — by
// construction the report pointer is only ever swapped after a fully
// successful apply, so it is the last good state. This is the
// quarantine path of internal/supervisor; orderly shutdown wants Close.
func (e *Engine) Abandon() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.subMu.Lock()
	already := e.closed
	e.closed = true
	for id, ch := range e.subs {
		delete(e.subs, id)
		close(ch)
	}
	e.subMu.Unlock()
	if already || e.pers == nil {
		return
	}
	if e.pers.broken == nil {
		e.pers.broken = errors.New("engine abandoned after internal fault")
	}
	// Best-effort close; the durable state is whatever the log already
	// acknowledged, and recovery truncates any torn tail.
	_ = e.pers.w.Close()
}

// DroppedUpdates returns the total number of updates shed from slow
// subscribers since the engine started (see Subscribe).
func (e *Engine) DroppedUpdates() uint64 {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	return e.dropped
}

func (e *Engine) isClosed() bool {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	return e.closed
}

// publish fans an update out without ever blocking: a full subscriber
// buffer sheds its oldest update first.
func (e *Engine) publish(up Update) {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	for _, ch := range e.subs {
		for {
			select {
			case ch <- up:
			default:
				select {
				case <-ch: // shed the oldest pending update
					e.dropped++
				default:
				}
				continue
			}
			break
		}
	}
}

// VerdictChange is one membership whose verdict moved under a delta.
type VerdictChange struct {
	IXP   string `json:"ixp"`
	Iface string `json:"iface"`
	From  string `json:"from"`
	To    string `json:"to"`
	// FromStep and ToStep attribute the verdicts to pipeline steps.
	FromStep string `json:"from_step,omitempty"`
	ToStep   string `json:"to_step,omitempty"`
	// Added and Removed mark memberships that entered or departed the
	// inference domain with this delta.
	Added   bool `json:"added,omitempty"`
	Removed bool `json:"removed,omitempty"`
}

// Update summarises one applied delta.
type Update struct {
	// Seq is the engine's delta sequence number after this apply.
	Seq uint64 `json:"seq"`
	// Joined, Left and RTTRefreshed echo the delta's shape.
	Joined       int `json:"joined"`
	Left         int `json:"left"`
	RTTRefreshed int `json:"rtt_refreshed"`
	// Changes lists every membership whose verdict differs from the
	// previous snapshot, ordered by (IXP, interface).
	Changes []VerdictChange `json:"changes"`
}

// diffReports lists the verdict changes between two snapshots: one
// merge over the reports' domain-ordered rows (see core.DiffVerdicts),
// then a sort of the change list alone into the
// wire order, (IXP, interface string).
func diffReports(seq uint64, old, new *core.Report) *Update {
	up := &Update{Seq: seq}
	core.DiffVerdicts(old, new, func(k Key, o, n *Inference) {
		ch := VerdictChange{IXP: k.IXP, Iface: k.Iface.String()}
		switch {
		case n == nil:
			ch.From, ch.FromStep = o.Class.String(), stepName(o.Step)
			ch.To, ch.Removed = core.ClassUnknown.String(), true
		case o == nil:
			ch.From = core.ClassUnknown.String()
			ch.To, ch.ToStep, ch.Added = n.Class.String(), stepName(n.Step), true
		default:
			ch.From, ch.FromStep = o.Class.String(), stepName(o.Step)
			ch.To, ch.ToStep = n.Class.String(), stepName(n.Step)
		}
		up.Changes = append(up.Changes, ch)
	})
	sort.Slice(up.Changes, func(i, j int) bool {
		if up.Changes[i].IXP != up.Changes[j].IXP {
			return up.Changes[i].IXP < up.Changes[j].IXP
		}
		return up.Changes[i].Iface < up.Changes[j].Iface
	})
	return up
}

// stepName renders a step for the wire, with "none" elided.
func stepName(s Step) string {
	if s == core.StepNone {
		return ""
	}
	return s.String()
}
