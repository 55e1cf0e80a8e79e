package supervisor

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"sync/atomic"
	"testing"
	"time"

	"rpeer/internal/netsim"
	"rpeer/internal/wal"
	"rpeer/pkg/rpi"
)

// quiet drops engine/supervisor log noise from test output.
var quiet = log.New(io.Discard, "", 0)

// harness is one supervised persistent engine over a fault-injectable
// in-memory filesystem, with a one-shot arming lever for an apply-time
// panic (the "engine bug" fault) — the same rig `rpi-bot -faults`
// drives over HTTP.
type harness struct {
	t     *testing.T
	fsys  *wal.MemFS
	in    rpi.Inputs
	g     *Guard
	panic atomic.Bool // armed: next Apply panics after journaling
}

func newHarness(t *testing.T, withReopen bool) *harness {
	t.Helper()
	in, err := rpi.InputsFromConfig(netsim.TinyConfig(), 21)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, fsys: wal.NewMemFS(), in: in}
	opts := Options{RetryInterval: 5 * time.Millisecond, Logger: quiet}
	if withReopen {
		opts.Reopen = func() (*rpi.Engine, *rpi.RecoveryInfo, error) {
			return h.open()
		}
	}
	h.g = New(opts)
	eng, _, err := h.open()
	if err != nil {
		t.Fatal(err)
	}
	h.g.Publish(eng)
	t.Cleanup(func() { _ = h.g.Close() })
	return h
}

// open builds (or recovers) the persistent engine over the shared
// MemFS. The apply hook panics exactly once per arming, after the
// delta is journaled — the worst-case fault the durability contract
// must absorb.
func (h *harness) open() (*rpi.Engine, *rpi.RecoveryInfo, error) {
	return rpi.Open("data", h.in,
		rpi.WithWALFS(h.fsys),
		rpi.WithSnapshotEvery(0), // keep MemFS ops append-only: injections land on the log
		rpi.WithLogger(quiet),
		rpi.WithApplyHook(func(seq uint64, d rpi.Delta) {
			if h.panic.CompareAndSwap(true, false) {
				panic("supervisor_test: injected engine fault")
			}
		}),
	)
}

func (h *harness) delta(seed int64) rpi.Delta {
	return rpi.ChurnDelta(h.g.Engine().Inputs(), 0.05, seed)
}

// waitReady polls until the guard is writable again (or fails the
// test): the recovery-to-writable bound.
func (h *harness) waitReady() {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.g.Engine() == nil || h.g.Quarantined() {
		if time.Now().After(deadline) {
			h.t.Fatalf("guard not ready after 10s: %+v", h.g.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// anyIXP picks one IXP name present in the inputs.
func (h *harness) anyIXP() string {
	for _, name := range h.in.Dataset.PrefixIXP {
		return name
	}
	h.t.Fatal("no IXPs in inputs")
	return ""
}

func TestPanicQuarantineAndRecovery(t *testing.T) {
	h := newHarness(t, true)
	ctx := context.Background()

	// A healthy apply establishes acked state past the initial publish.
	if _, err := h.g.Apply(ctx, h.delta(1)); err != nil {
		t.Fatal(err)
	}
	ackedBefore := h.g.Stats().AckedSeq
	goodRep, err := h.g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sub, cancel := h.g.Engine().Subscribe(4)
	defer cancel()

	// Inject the engine bug: the delta journals, then Apply panics.
	h.panic.Store(true)
	_, err = h.g.Apply(ctx, h.delta(2))
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("faulting apply: err = %v, want ErrQuarantined", err)
	}
	if !h.g.Quarantined() {
		t.Fatal("guard not quarantined after panic")
	}

	// The sick engine's subscribers were woken (channel closed) so
	// streaming clients resynchronize instead of hanging. Quarantine
	// runs synchronously inside the faulting Apply, so the close is
	// already observable; drain any buffered updates first.
	closed := false
	for i := 0; i < 8 && !closed; i++ {
		if _, ok := <-sub; !ok {
			closed = true
		}
	}
	if !closed {
		t.Fatal("subscriber channel not closed after quarantine")
	}

	// Reads keep serving the last good report; writes are refused even
	// if they race in before recovery finishes.
	rep, err := h.g.Snapshot()
	if err != nil || rep != goodRep {
		t.Fatalf("quarantined snapshot: rep=%p want %p, err=%v", rep, goodRep, err)
	}
	if _, err := h.g.ReportFor(ctx, h.anyIXP()); err != nil {
		t.Fatalf("quarantined ReportFor: %v", err)
	}
	if _, err := h.g.ReportFor(ctx, "no-such-ixp"); !errors.Is(err, rpi.ErrUnknownIXP) {
		t.Fatalf("quarantined ReportFor unknown: err = %v, want ErrUnknownIXP", err)
	}

	// Background recovery re-Opens from the WAL and swaps the engine in.
	h.waitReady()
	st := h.g.Stats()
	if st.Faults != 1 || st.Recoveries != 1 || st.ContinuityViolations != 0 {
		t.Fatalf("stats after recovery: %+v", st)
	}
	// The panicking delta was journaled before the fault, so the
	// recovered engine must carry it: exactly acked+1, nothing lost,
	// nothing invented.
	if got := h.g.Engine().Seq(); got != ackedBefore+1 {
		t.Fatalf("recovered seq = %d, want %d (acked %d + journaled in-flight delta)", got, ackedBefore+1, ackedBefore)
	}
	// The recovered engine is writable and its state matches a cold
	// rebuild over its own inputs — the determinism contract held
	// through panic, abandon and replay.
	up, err := h.g.Apply(ctx, h.delta(3))
	if err != nil {
		t.Fatalf("post-recovery apply: %v", err)
	}
	if up.Seq != ackedBefore+2 {
		t.Fatalf("post-recovery seq = %d, want %d", up.Seq, ackedBefore+2)
	}
	cold, err := rpi.New(h.g.Engine().Inputs())
	if err != nil {
		t.Fatal(err)
	}
	recovered, _ := rpi.MarshalReport(h.g.Engine().Snapshot())
	rebuilt, _ := rpi.MarshalReport(cold.Snapshot())
	if !bytes.Equal(recovered, rebuilt) {
		t.Fatal("recovered report differs from cold rebuild")
	}
}

func TestPersistenceFaultQuarantineAndRecovery(t *testing.T) {
	h := newHarness(t, true)
	ctx := context.Background()

	if _, err := h.g.Apply(ctx, h.delta(1)); err != nil {
		t.Fatal(err)
	}
	acked := h.g.Stats().AckedSeq

	// The next log append fails (transient EIO): the engine declares
	// persistence broken, the guard quarantines it.
	h.fsys.InjectAt(1, wal.Fault{Mode: wal.FaultError})
	if _, err := h.g.Apply(ctx, h.delta(2)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err = %v, want ErrQuarantined", err)
	}

	h.waitReady()
	// The failed delta was never journaled: the recovered engine is at
	// exactly the acknowledged seq.
	if got := h.g.Engine().Seq(); got != acked {
		t.Fatalf("recovered seq = %d, want %d (failed delta must not surface)", got, acked)
	}
	if st := h.g.Stats(); st.ContinuityViolations != 0 || st.Recoveries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if _, err := h.g.Apply(ctx, h.delta(3)); err != nil {
		t.Fatalf("post-recovery apply: %v", err)
	}
}

func TestNoReopenQuarantineIsPermanent(t *testing.T) {
	h := newHarness(t, false)
	ctx := context.Background()

	h.panic.Store(true)
	if _, err := h.g.Apply(ctx, h.delta(1)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("err = %v, want ErrQuarantined", err)
	}
	// No recovery path: stays quarantined, reads keep serving, writes
	// keep refusing.
	time.Sleep(50 * time.Millisecond)
	if !h.g.Quarantined() {
		t.Fatal("guard became ready without a reopen path")
	}
	if _, err := h.g.Snapshot(); err != nil {
		t.Fatalf("read during permanent quarantine: %v", err)
	}
	if _, err := h.g.Apply(ctx, h.delta(2)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("write during permanent quarantine: err = %v", err)
	}
	if st := h.g.Stats(); st.Faults != 1 || st.Recoveries != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestNoEngine(t *testing.T) {
	g := New(Options{Logger: quiet})
	if g.Engine() != nil {
		t.Fatal("empty guard has an engine")
	}
	if _, err := g.Snapshot(); !errors.Is(err, ErrNoEngine) {
		t.Fatalf("Snapshot: err = %v, want ErrNoEngine", err)
	}
	if _, err := g.Apply(context.Background(), rpi.Delta{}); !errors.Is(err, ErrNoEngine) {
		t.Fatalf("Apply: err = %v, want ErrNoEngine", err)
	}
	if _, err := g.ReportFor(context.Background(), "x"); !errors.Is(err, ErrNoEngine) {
		t.Fatalf("ReportFor: err = %v, want ErrNoEngine", err)
	}
}

func TestGenerationBumpsPerPublish(t *testing.T) {
	h := newHarness(t, true)
	if h.g.Generation() != 1 {
		t.Fatalf("generation after first publish = %d, want 1", h.g.Generation())
	}
	h.panic.Store(true)
	_, _ = h.g.Apply(context.Background(), h.delta(1))
	h.waitReady()
	if h.g.Generation() != 2 {
		t.Fatalf("generation after recovery = %d, want 2", h.g.Generation())
	}
}
