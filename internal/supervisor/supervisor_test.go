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

func newHarness(t *testing.T) *harness {
	t.Helper()
	in, err := rpi.InputsFromConfig(netsim.TinyConfig(), 21)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, fsys: wal.NewMemFS(), in: in}
	eng, _, err := h.open()
	if err != nil {
		t.Fatal(err)
	}
	h.g = New(eng, Options{Reopen: h.open, RetryInterval: 5 * time.Millisecond, Logger: quiet})
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
	for h.g.Quarantined() {
		if time.Now().After(deadline) {
			h.t.Fatalf("guard not ready after 10s: %+v", h.g.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPanicQuarantineAndRecovery(t *testing.T) {
	h := newHarness(t)
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
	h := newHarness(t)
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

func TestGenerationBumpsPerPublish(t *testing.T) {
	h := newHarness(t)
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
