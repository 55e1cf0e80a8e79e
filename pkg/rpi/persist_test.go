package rpi

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"strings"
	"sync"
	"testing"

	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/snapshot"
	"rpeer/internal/wal"
)

// The crash tests run real engine histories over a TinyConfig world
// (~8 IXPs): every Open builds a full pipeline, so the world must be
// small enough to rebuild dozens of times in one test run.
var (
	tinyOnce sync.Once
	tinyIn   Inputs
	tinyErr  error
)

func tinyInputs(t testing.TB) Inputs {
	t.Helper()
	tinyOnce.Do(func() {
		tinyIn, tinyErr = syntheticInputs(netsim.TinyConfig(), 21)
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyIn
}

// history is a fixed delta sequence over the tiny world plus the
// golden report bytes at every sequence number: reports[k] is the
// MarshalReport output after the first k deltas. Every crash-recovery
// assertion reduces to "recovered seq s, recovered bytes ==
// reports[s]".
type history struct {
	deltas  []Delta
	reports [][]byte
}

var (
	histOnce sync.Once
	hist     *history
	histErr  error
)

const histLen = 4

func tinyHistory(t testing.TB) *history {
	t.Helper()
	in := tinyInputs(t)
	histOnce.Do(func() {
		histErr = func() error {
			eng, err := New(in)
			if err != nil {
				return err
			}
			defer eng.Close()
			h := &history{}
			rep, err := MarshalReport(eng.Snapshot())
			if err != nil {
				return err
			}
			h.reports = append(h.reports, rep)
			for k := 1; k <= histLen; k++ {
				d := ChurnDelta(eng.Inputs(), 0.05, int64(100+k))
				if k%2 == 0 {
					// Fold in a ping re-campaign so RTT overrides (and
					// their vantage-point references) cross the log too.
					pcfg := pingsim.DefaultCampaign()
					pcfg.Seed = int64(500 + k)
					d.Ping = pingsim.Overrides(pingsim.Run(in.World, in.Ping.VPs, pcfg))
				}
				if _, err := eng.Apply(context.Background(), d); err != nil {
					return err
				}
				h.deltas = append(h.deltas, d)
				if rep, err = MarshalReport(eng.Snapshot()); err != nil {
					return err
				}
				h.reports = append(h.reports, rep)
			}
			hist = h
			return nil
		}()
	})
	if histErr != nil {
		t.Fatal(histErr)
	}
	return hist
}

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func reportBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	b, err := MarshalReport(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOpenCloseReopen is the clean lifecycle: SIGTERM-style shutdown
// (Close publishes a final snapshot) followed by a restart that
// replays nothing and serves identical bytes.
func TestOpenCloseReopen(t *testing.T) {
	in := tinyInputs(t)
	h := tinyHistory(t)
	fsys := wal.NewMemFS()

	eng, info, err := Open("data", in, WithWALFS(fsys), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 0 || info.Replayed != 0 || info.SnapshotName != "" {
		t.Fatalf("fresh open recovered state: %+v", info)
	}
	for _, d := range h.deltas[:2] {
		if _, err := eng.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reportBytes(t, eng), h.reports[2]) {
		t.Fatal("live report diverges from golden history")
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, info, err := Open("data", in, WithWALFS(fsys), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info.SnapshotSeq != 2 || info.Replayed != 0 || info.TornTail {
		t.Fatalf("reopen after clean close should start from the final snapshot: %+v", info)
	}
	if re.Seq() != 2 {
		t.Fatalf("recovered seq = %d, want 2", re.Seq())
	}
	if !bytes.Equal(reportBytes(t, re), h.reports[2]) {
		t.Fatal("recovered report differs from pre-shutdown golden")
	}
	// The recovered engine is live: the rest of the history applies and
	// matches the goldens.
	for k, d := range h.deltas[2:] {
		if _, err := re.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reportBytes(t, re), h.reports[3+k]) {
			t.Fatalf("post-recovery apply %d diverges from golden", 3+k)
		}
	}
}

// TestCrashRecoveryMatrix kills the "machine" at every injectable
// filesystem operation across an engine lifetime — segment creation,
// record appends, fsyncs, snapshot publishes — then power-fails the
// disk (unsynced data lost) and recovers. The contract at every crash
// point: recovery succeeds, the recovered seq is the acknowledged
// prefix (or one more — a delta durably logged whose ack never
// returned), and the recovered report is byte-identical to the golden
// report at that seq.
func TestCrashRecoveryMatrix(t *testing.T) {
	in := tinyInputs(t)
	h := tinyHistory(t)
	for crashAt := 1; ; crashAt++ {
		fsys := wal.NewMemFS()
		fsys.InjectAt(crashAt, wal.Fault{Mode: wal.FaultCrash})

		acked := 0
		eng, _, err := Open("data", in, WithWALFS(fsys),
			WithLogger(quietLogger()), WithSnapshotEvery(2), WithSync(SyncEveryDelta))
		if err == nil {
			for _, d := range h.deltas {
				if _, aerr := eng.Apply(context.Background(), d); aerr != nil {
					if !errors.Is(aerr, ErrPersistence) {
						t.Fatalf("crash at op %d: apply failed with %v, want ErrPersistence", crashAt, aerr)
					}
					break
				}
				acked++
			}
		}
		crashed := fsys.Crashed()
		fsys.PowerFail(0)

		rec, info, rerr := Open("data", in, WithWALFS(fsys),
			WithLogger(quietLogger()), WithSnapshotEvery(2))
		if rerr != nil {
			t.Fatalf("crash at op %d (acked %d): recovery failed: %v", crashAt, acked, rerr)
		}
		seq := int(rec.Seq())
		if seq != acked && seq != acked+1 {
			t.Fatalf("crash at op %d: recovered seq %d, acked %d", crashAt, seq, acked)
		}
		if !bytes.Equal(reportBytes(t, rec), h.reports[seq]) {
			t.Fatalf("crash at op %d: recovered report differs from golden at seq %d", crashAt, seq)
		}
		if info.Seq != uint64(seq) {
			t.Fatalf("crash at op %d: info.Seq %d != engine seq %d", crashAt, info.Seq, seq)
		}
		rec.Close()

		if !crashed && err == nil && acked == len(h.deltas) {
			// The injection point lies beyond a full uncrashed lifetime:
			// the matrix is exhausted.
			break
		}
	}
}

// TestTornTailTruncated fabricates the signature of a crash
// mid-append — a frame that runs past the end of the segment — and
// expects recovery to truncate it with a warning, recovering every
// record before it.
func TestTornTailTruncated(t *testing.T) {
	in := tinyInputs(t)
	h := tinyHistory(t)
	fsys := wal.NewMemFS()
	eng, _, err := Open("data", in, WithWALFS(fsys),
		WithLogger(quietLogger()), WithSnapshotEvery(0)) // no snapshots: recovery must replay
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range h.deltas[:3] {
		if _, err := eng.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the process was killed. Tear the tail by hand: a frame
	// header promising 64 bytes with only 3 present.
	seg := "data/" + wal.SegmentName(0)
	raw, ok := fsys.ReadFile(seg)
	if !ok {
		t.Fatalf("segment %s missing", seg)
	}
	torn := append(append([]byte{}, raw...), 64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3)
	fsys.WriteFile(seg, torn)

	var warnings strings.Builder
	rec, info, err := Open("data", in, WithWALFS(fsys),
		WithLogger(log.New(&warnings, "", 0)), WithSnapshotEvery(0))
	if err != nil {
		t.Fatalf("torn tail must not fail recovery: %v", err)
	}
	defer rec.Close()
	if !info.TornTail || info.TruncatedAt != int64(len(raw)) {
		t.Fatalf("recovery info = %+v, want torn tail truncated at %d", info, len(raw))
	}
	if !strings.Contains(warnings.String(), "truncating torn log tail") {
		t.Fatalf("no truncation warning logged; got %q", warnings.String())
	}
	if rec.Seq() != 3 || !bytes.Equal(reportBytes(t, rec), h.reports[3]) {
		t.Fatalf("recovered seq %d; records before the tear must survive", rec.Seq())
	}
	if got, _ := fsys.ReadFile(seg); len(got) != len(raw) {
		t.Fatalf("segment not truncated: %d bytes, want %d", len(got), len(raw))
	}
	// A second restart over the truncated log is a clean recovery.
	re2, info2, err := Open("data", in, WithWALFS(fsys),
		WithLogger(quietLogger()), WithSnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if info2.TornTail || re2.Seq() != 3 {
		t.Fatalf("second recovery not clean: %+v, seq %d", info2, re2.Seq())
	}
}

// TestInteriorCorruptionRefused damages a checksummed record that has
// intact records after it: recovery must refuse with ErrCorruptLog
// naming the offset, never silently skip.
func TestInteriorCorruptionRefused(t *testing.T) {
	in := tinyInputs(t)
	h := tinyHistory(t)
	fsys := wal.NewMemFS()
	eng, _, err := Open("data", in, WithWALFS(fsys),
		WithLogger(quietLogger()), WithSnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range h.deltas[:3] {
		if _, err := eng.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	// Find the second record's offset (header frame + record frames).
	seg := "data/" + wal.SegmentName(0)
	var offsets []int64
	if _, err := wal.Scan(fsys, seg, func(off int64, _ []byte) error {
		offsets = append(offsets, off)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(offsets) != 3 {
		t.Fatalf("expected 3 records, found %d", len(offsets))
	}
	raw, _ := fsys.ReadFile(seg)
	raw[offsets[1]+8] ^= 0xff // first payload byte of record 2
	fsys.WriteFile(seg, raw)

	_, _, err = Open("data", in, WithWALFS(fsys), WithLogger(quietLogger()))
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("err = %v, want ErrCorruptLog", err)
	}
	var ce *wal.CorruptError
	if !errors.As(err, &ce) || ce.Offset != offsets[1] {
		t.Fatalf("error does not carry the damage offset: %v", err)
	}
}

// TestOpenBaseMismatch: a data directory married to one world must
// refuse a different one instead of serving frankenstate.
func TestOpenBaseMismatch(t *testing.T) {
	in := tinyInputs(t)
	fsys := wal.NewMemFS()
	eng, _, err := Open("data", in, WithWALFS(fsys), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(context.Background(), ChurnDelta(eng.Inputs(), 0.05, 3)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	other, err := syntheticInputs(netsim.TinyConfig(), 22)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open("data", other, WithWALFS(fsys), WithLogger(quietLogger())); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("err = %v, want ErrBaseMismatch", err)
	}
}

// TestReplayToAnyIndex re-drives the log to every historical sequence
// number and expects the golden report at each one (the cmd/rpi-replay
// code path).
func TestReplayToAnyIndex(t *testing.T) {
	in := tinyInputs(t)
	h := tinyHistory(t)
	fsys := wal.NewMemFS()
	eng, _, err := Open("data", in, WithWALFS(fsys),
		WithLogger(quietLogger()), WithSnapshotEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range h.deltas {
		if _, err := eng.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= len(h.deltas); k++ {
		rep, info, err := Replay("data", in, uint64(k), WithWALFS(fsys), WithLogger(quietLogger()))
		if err != nil {
			t.Fatalf("replay to %d: %v", k, err)
		}
		if info.Seq != uint64(k) || rep.Seq() != uint64(k) {
			t.Fatalf("replay to %d landed at seq %d", k, rep.Seq())
		}
		if !bytes.Equal(reportBytes(t, rep), h.reports[k]) {
			t.Fatalf("replay to %d differs from golden", k)
		}
		rep.Close()
	}
}

// TestBrokenPersistenceFreezes: after an injected append failure the
// engine keeps serving reads but refuses further Applies, and the
// durable state recovers to exactly the acknowledged prefix.
func TestBrokenPersistenceFreezes(t *testing.T) {
	in := tinyInputs(t)
	h := tinyHistory(t)
	fsys := wal.NewMemFS()
	eng, _, err := Open("data", in, WithWALFS(fsys),
		WithLogger(quietLogger()), WithSnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(context.Background(), h.deltas[0]); err != nil {
		t.Fatal(err)
	}
	// Fail the next mutating op (the append's write) without crashing
	// the "machine": a local disk error, not a power cut.
	fsys.InjectAt(1, wal.Fault{Mode: wal.FaultError})
	if _, err := eng.Apply(context.Background(), h.deltas[1]); !errors.Is(err, ErrPersistence) {
		t.Fatalf("apply after disk error = %v, want ErrPersistence", err)
	}
	// Reads still serve the last good state; writes stay refused.
	if !bytes.Equal(reportBytes(t, eng), h.reports[1]) {
		t.Fatal("reads must keep serving after persistence breaks")
	}
	if _, err := eng.Apply(context.Background(), h.deltas[1]); !errors.Is(err, ErrPersistence) {
		t.Fatalf("engine must stay broken, got %v", err)
	}
	if err := eng.Checkpoint(); !errors.Is(err, ErrPersistence) {
		t.Fatalf("checkpoint on broken engine = %v, want ErrPersistence", err)
	}
	eng.Close()

	rec, _, err := Open("data", in, WithWALFS(fsys), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Seq() != 1 || !bytes.Equal(reportBytes(t, rec), h.reports[1]) {
		t.Fatalf("recovered seq %d, want the acknowledged prefix 1", rec.Seq())
	}
}

// TestCheckpointRotates: an explicit checkpoint publishes a snapshot
// and rotates the log, so the next recovery replays nothing.
func TestCheckpointRotates(t *testing.T) {
	in := tinyInputs(t)
	h := tinyHistory(t)
	fsys := wal.NewMemFS()
	eng, _, err := Open("data", in, WithWALFS(fsys),
		WithLogger(quietLogger()), WithSnapshotEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range h.deltas[:2] {
		if _, err := eng.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err) // idempotent at the same seq
	}
	_ = eng // killed without Close: recovery must come entirely from the checkpoint
	rec, info, err := Open("data", in, WithWALFS(fsys), WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if info.SnapshotSeq != 2 || info.Replayed != 0 {
		t.Fatalf("recovery after checkpoint: %+v, want snapshot seq 2, replay 0", info)
	}
	if !bytes.Equal(reportBytes(t, rec), h.reports[2]) {
		t.Fatal("checkpoint-recovered report differs from golden")
	}
}

// TestSubscribeDropCount pins the slow-consumer contract: a
// subscriber with buffer 1 that never reads keeps only the newest
// update, and every shed update is counted.
func TestSubscribeDropCount(t *testing.T) {
	in := tinyInputs(t)
	h := tinyHistory(t)
	eng, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ch, cancel := eng.Subscribe(1)
	defer cancel()
	for _, d := range h.deltas[:3] {
		if _, err := eng.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.DroppedUpdates(); got != 2 {
		t.Fatalf("DroppedUpdates = %d, want 2 (three updates through a 1-buffer)", got)
	}
	up := <-ch
	if up.Seq != 3 {
		t.Fatalf("survivor update has seq %d, want the newest (3)", up.Seq)
	}
}

// TestSnapshotRetention: with WithSnapshotRetention(2) only the two
// newest snapshots and the log after the older one survive, and that
// is still enough to recover the latest state when the newest snapshot
// is damaged.
func TestSnapshotRetention(t *testing.T) {
	in := tinyInputs(t)
	h := tinyHistory(t)
	fsys := wal.NewMemFS()
	opts := []Option{WithWALFS(fsys), WithLogger(quietLogger()), WithSnapshotEvery(1), WithSnapshotRetention(2)}
	eng, _, err := Open("data", in, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range h.deltas {
		if _, err := eng.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	last := uint64(len(h.deltas))
	names, _ := fsys.ReadDir("data")
	want := []string{snapshot.FileName(last - 1), snapshot.FileName(last), wal.SegmentName(last - 1), wal.SegmentName(last)}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("data dir holds %v, want %v", names, want)
	}

	// No Close: the process was killed, and the newest snapshot is bad.
	fsys.WriteFile("data/"+snapshot.FileName(last), []byte("not a snapshot"))
	rec, info, err := Open("data", in, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if info.SnapshotSeq != last-1 || rec.Seq() != last {
		t.Fatalf("recovered from snapshot %d to seq %d, want %d to %d", info.SnapshotSeq, rec.Seq(), last-1, last)
	}
	if !bytes.Equal(reportBytes(t, rec), h.reports[last]) {
		t.Fatal("recovered report differs from golden")
	}
}
