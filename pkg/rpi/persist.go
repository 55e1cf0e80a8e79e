package rpi

import (
	"errors"
	"fmt"
	"log"
	"time"

	"rpeer/internal/core"
	"rpeer/internal/snapshot"
	"rpeer/internal/wal"
)

// Crash safety. A persistent engine (Open) journals every applied
// delta to an append-only, checksummed write-ahead log and
// periodically publishes columnar snapshots of its mutable state; the
// immutable bulk — the world, the colo database, the base campaign,
// the traceroute corpus — is regenerated from the base inputs, never
// stored. Recovery is
//
//	latest valid snapshot  →  restore columns over base  →  replay log tail
//
// and the determinism contract of the engine (post-Apply state ≡ cold
// rebuild over Inputs()) guarantees the recovered engine serves
// byte-identical reports.
//
// Ordering inside Apply is validate → log → mutate: the delta is fully
// validated first (a validated delta cannot fail to apply), then
// appended and — per the sync policy — fsynced, then applied in
// memory. A crash can therefore lose at most the one delta whose
// Apply never returned; every acknowledged delta is recovered under
// SyncEveryDelta. If an append or fsync fails, the engine declares
// persistence broken: reads keep serving, further Applies fail with
// ErrPersistence, and no more snapshots are published, so the durable
// state remains exactly the acknowledged prefix.

// SyncMode selects when the delta log is fsynced.
type SyncMode int

const (
	// SyncEveryDelta fsyncs the log record before Apply returns: an
	// acknowledged delta survives any crash. The default.
	SyncEveryDelta SyncMode = iota
	// SyncInterval fsyncs at most once per WithSyncInterval duration; a
	// crash can lose up to one interval of acknowledged deltas.
	SyncInterval
	// SyncOff leaves flushing to the OS. Benchmarks and bulk loads.
	SyncOff
)

// DefaultSnapshotEvery is how many deltas pass between automatic
// snapshots when WithSnapshotEvery is not given.
const DefaultSnapshotEvery = 64

// WithSync selects the delta-log fsync policy of a persistent engine.
func WithSync(m SyncMode) Option {
	return func(c *config) { c.sync.Mode = walMode(m) }
}

// WithSyncInterval selects SyncInterval with the given flush period.
func WithSyncInterval(d time.Duration) Option {
	return func(c *config) {
		c.sync.Mode = wal.SyncEveryInterval
		c.sync.Interval = d
	}
}

// WithSnapshotEvery sets how many applied deltas pass between
// automatic snapshots (0 disables automatic snapshots; Close still
// publishes a final one).
func WithSnapshotEvery(n int) Option {
	return func(c *config) {
		c.snapEvery = uint64(n)
		c.snapSet = true
	}
}

// WithSnapshotRetention bounds what a persistent engine keeps in its
// data directory: each time a snapshot publishes, only the n newest
// snapshots stay, and log segments whose every record is covered by
// the oldest of them are removed. A long-lived engine then holds O(n)
// snapshots plus one snapshot interval of log, however many deltas it
// takes. The default, 0, keeps every file, which is what Replay needs
// to reach any historical seq. Choose n >= 2 on a real disk, so a
// damaged newest snapshot still falls back to the one before it.
func WithSnapshotRetention(n int) Option {
	return func(c *config) { c.retain = n }
}

// WithLogger routes recovery and persistence warnings (torn-tail
// truncation, skipped snapshots, failed background snapshots) to l
// instead of the process-default logger. l must not be nil.
func WithLogger(l *log.Logger) Option {
	return func(c *config) { c.logger = l }
}

func walMode(m SyncMode) wal.SyncMode {
	switch m {
	case SyncInterval:
		return wal.SyncEveryInterval
	case SyncOff:
		return wal.SyncNever
	}
	return wal.SyncEveryRecord
}

// persister is the engine's durable half: the open log segment and the
// snapshot directory state. Guarded by the engine's write lock.
type persister struct {
	fsys      wal.FS
	dir       string
	pol       wal.Policy
	snapEvery uint64
	retain    int
	logger    *log.Logger
	fp        uint64
	w         *wal.Writer
	// lastSnap is the seq of the newest published snapshot.
	lastSnap uint64
	// broken, once set, fails every further Apply with ErrPersistence:
	// the durable state is frozen at the acknowledged prefix.
	broken error
}

// RecoveryInfo reports what Open (or Replay) found in a data
// directory.
type RecoveryInfo struct {
	// SnapshotName and SnapshotSeq identify the snapshot recovery
	// started from ("" / 0 when recovery replayed from an empty state).
	SnapshotName string
	SnapshotSeq  uint64
	// SkippedSnapshots lists invalid snapshot files that were passed
	// over (with reasons) before a valid one was found.
	SkippedSnapshots []string
	// Replayed is the number of log records applied on top of the
	// snapshot.
	Replayed int
	// TornTail reports that the final log segment ended in a torn
	// record (the signature of a crash mid-append); TornReason says
	// what was wrong and TruncatedAt the byte offset the segment was
	// cut back to.
	TornTail    bool
	TornReason  string
	TruncatedAt int64
	// Seq is the engine's delta sequence after recovery.
	Seq uint64
}

// Open builds a persistent engine over a data directory. base must be
// the same inputs every run of this directory uses (same generator
// seed and scale — the fingerprint is checked against the durable
// state, and a mismatch fails with ErrBaseMismatch). An empty or
// missing directory starts a fresh engine at seq 0.
//
// Recovery loads the newest valid snapshot, restores its columns over
// base, replays every log record past the snapshot, truncates a torn
// final record (logging a warning — a torn tail is a crash artifact,
// not corruption), and fails with ErrCorruptLog if a damaged record
// has intact records after it (those cannot be trusted to be what was
// written). The returned RecoveryInfo says which path was taken.
func Open(dir string, base Inputs, opts ...Option) (*Engine, *RecoveryInfo, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if !cfg.snapSet {
		cfg.snapEvery = DefaultSnapshotEvery
	}
	fsys := cfg.walFS
	if fsys == nil {
		fsys = wal.OS()
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("%w: create data dir: %v", ErrPersistence, err)
	}
	ctx, info, err := recoverState(fsys, dir, base, cfg, ^uint64(0), false)
	if err != nil {
		return nil, nil, err
	}
	e, err := buildEngine(ctx, cfg, info.Seq)
	if err != nil {
		return nil, nil, err
	}
	fp := core.Fingerprint(base)
	w, err := wal.Create(fsys, dir, wal.SegmentName(info.Seq),
		wal.Header{Fingerprint: fp, FirstSeq: info.Seq}, cfg.sync)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: open log segment: %v", ErrPersistence, err)
	}
	e.pers = &persister{
		fsys: fsys, dir: dir, pol: cfg.sync,
		snapEvery: cfg.snapEvery, retain: cfg.retain, logger: cfg.logger,
		fp: fp, w: w, lastSnap: info.SnapshotSeq,
	}
	return e, info, nil
}

// Replay rebuilds an engine from a data directory's durable state up
// to (and including) delta sequence upTo, without attaching to the
// directory: the returned engine is in-memory (its Applies are not
// logged) and the directory is not written — a torn tail is tolerated
// but not truncated. Use ^uint64(0) to replay everything;
// cmd/rpi-replay drives this to inspect any historical state.
func Replay(dir string, base Inputs, upTo uint64, opts ...Option) (*Engine, *RecoveryInfo, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	fsys := cfg.walFS
	if fsys == nil {
		fsys = wal.OS()
	}
	ctx, info, err := recoverState(fsys, dir, base, cfg, upTo, true)
	if err != nil {
		return nil, nil, err
	}
	e, err := buildEngine(ctx, cfg, info.Seq)
	if err != nil {
		return nil, nil, err
	}
	return e, info, nil
}

// recoverState restores a context from snapshot + log tail, applying
// only records with seq <= maxSeq. In readOnly mode the directory is
// never written (no torn-tail truncation).
func recoverState(fsys wal.FS, dir string, base Inputs, cfg config, maxSeq uint64, readOnly bool) (*core.Context, *RecoveryInfo, error) {
	if base.World == nil || base.Dataset == nil || base.Colo == nil {
		return nil, nil, fmt.Errorf("%w: World, Dataset and Colo are required", ErrMissingInput)
	}
	fp := core.Fingerprint(base)
	info := &RecoveryInfo{}

	snap, snapName, skipped, ok, err := snapshot.Latest(fsys, dir, maxSeq)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: list snapshots: %v", ErrBadSnapshot, err)
	}
	info.SkippedSnapshots = skipped
	for _, s := range skipped {
		cfg.logger.Printf("rpi: recovery skipped invalid snapshot %s", s)
	}
	in := base
	if ok {
		if snap.Fingerprint != fp {
			return nil, nil, fmt.Errorf("%w: snapshot %s has fingerprint %016x, base is %016x",
				ErrBaseMismatch, snapName, snap.Fingerprint, fp)
		}
		in, err = core.RestoreInputs(base, snap)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		info.SnapshotName, info.SnapshotSeq = snapName, snap.Seq
		info.Seq = snap.Seq
	} else {
		in.Dataset = base.Dataset.Clone()
	}
	ctx, err := core.NewContext(in)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrMissingInput, err)
	}

	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: list log segments: %v", ErrCorruptLog, err)
	}
	var segs []string
	for _, n := range names {
		if _, isSeg := wal.ParseSegmentName(n); isSeg {
			segs = append(segs, n) // ReadDir sorts; fixed-width hex = seq order
		}
	}
	return replaySegments(fsys, dir, segs, ctx, fp, maxSeq, readOnly, cfg.logger, info)
}

// replaySegments applies every log record past info.Seq (and <=
// maxSeq) to ctx, handling torn tails and corruption per the recovery
// state machine documented on Open.
func replaySegments(fsys wal.FS, dir string, segs []string, ctx *core.Context, fp, maxSeq uint64, readOnly bool, logger *log.Logger, info *RecoveryInfo) (*core.Context, *RecoveryInfo, error) {
	cur := info.Seq
	for i, name := range segs {
		path := dir + "/" + name
		last := i == len(segs)-1
		type rec struct {
			seq     uint64
			payload []byte
		}
		// Records are buffered and applied only after the whole segment
		// scans clean: applying as we go would leave the context mutated
		// by records that precede an interior corruption. Tails are
		// short (a snapshot rotates the log), so the buffer stays small.
		var pending []rec
		nameSeq, _ := wal.ParseSegmentName(name)
		recSeq := nameSeq
		scan, err := wal.Scan(fsys, path, func(off int64, payload []byte) error {
			recSeq++
			if recSeq <= info.Seq || recSeq > maxSeq {
				return nil // covered by the snapshot / past the replay bound
			}
			pending = append(pending, rec{seq: recSeq, payload: append([]byte(nil), payload...)})
			return nil
		})
		if err != nil {
			var ce *wal.CorruptError
			if errors.As(err, &ce) {
				// Both sentinels stay unwrappable: errors.Is(err,
				// ErrCorruptLog) for the caller's dispatch, errors.As for
				// the damage offset.
				return nil, nil, fmt.Errorf("%w: %w", ErrCorruptLog, ce)
			}
			return nil, nil, fmt.Errorf("%w: scan %s: %v", ErrCorruptLog, name, err)
		}
		if scan.GoodLen > 0 { // a valid header frame was read
			if scan.Header.Fingerprint != fp {
				return nil, nil, fmt.Errorf("%w: segment %s has fingerprint %016x, base is %016x",
					ErrBaseMismatch, name, scan.Header.Fingerprint, fp)
			}
			if scan.Header.FirstSeq != nameSeq {
				return nil, nil, fmt.Errorf("%w: segment %s header claims first seq %d", ErrCorruptLog, name, scan.Header.FirstSeq)
			}
		}
		if scan.Torn {
			if !last {
				// A torn interior segment means records were lost with
				// later segments present: not a tail crash.
				return nil, nil, fmt.Errorf("%w: segment %s is torn (%s) but later segments exist",
					ErrCorruptLog, name, scan.TornReason)
			}
			info.TornTail = true
			info.TornReason = scan.TornReason
			info.TruncatedAt = scan.GoodLen
			if readOnly {
				logger.Printf("rpi: recovery found torn log tail in %s (%s); read-only replay, not truncating", name, scan.TornReason)
			} else {
				logger.Printf("rpi: recovery truncating torn log tail in %s at byte %d (%s)", name, scan.GoodLen, scan.TornReason)
				if err := fsys.Truncate(path, scan.GoodLen); err != nil {
					return nil, nil, fmt.Errorf("%w: truncate torn tail of %s: %v", ErrPersistence, name, err)
				}
			}
		}
		for _, r := range pending {
			if r.seq != cur+1 {
				return nil, nil, fmt.Errorf("%w: segment %s jumps from seq %d to %d (missing records)",
					ErrCorruptLog, name, cur, r.seq)
			}
			d, err := decodeDelta(r.payload, ctx.VP)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: record %d in %s: %v", ErrCorruptLog, r.seq, name, err)
			}
			if err := ctx.Apply(core.Delta(d)); err != nil {
				return nil, nil, fmt.Errorf("%w: record %d in %s does not apply: %v", ErrCorruptLog, r.seq, name, err)
			}
			cur = r.seq
			info.Replayed++
		}
	}
	info.Seq = cur
	return ctx, info, nil
}

// Checkpoint publishes a snapshot of the engine's current state and
// rotates the delta log, shortening the next recovery's replay to
// zero. It is a no-op (and returns nil) on an in-memory engine or when
// the current seq is already snapshotted.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pers == nil || e.pers.lastSnap == e.Seq() {
		return nil
	}
	if e.pers.broken != nil {
		return fmt.Errorf("%w: %v", ErrPersistence, e.pers.broken)
	}
	return e.snapshotLocked(true)
}

// snapshotLocked publishes a snapshot at the current seq and, when
// rotate is set, starts a fresh log segment (records at or below the
// snapshot seq are then never replayed). Caller holds the write lock.
func (e *Engine) snapshotLocked(rotate bool) error {
	p, seq := e.pers, e.Seq()
	s := e.ctx.DumpColumns()
	s.Seq, s.Fingerprint = seq, p.fp
	if _, err := snapshot.Write(p.fsys, p.dir, s); err != nil {
		return fmt.Errorf("%w: %v", ErrPersistence, err)
	}
	p.lastSnap = seq
	if rotate {
		if err := p.w.Close(); err != nil {
			p.broken = err
			return fmt.Errorf("%w: close log segment: %v", ErrPersistence, err)
		}
		w, err := wal.Create(p.fsys, p.dir, wal.SegmentName(seq),
			wal.Header{Fingerprint: p.fp, FirstSeq: seq}, p.pol)
		if err != nil {
			p.broken = err
			return fmt.Errorf("%w: rotate log segment: %v", ErrPersistence, err)
		}
		p.w = w
	}
	p.prune()
	return nil
}

// prune applies WithSnapshotRetention after a snapshot publishes: it
// removes all but the newest retain snapshots, then every log segment
// whose records all lie at or below the oldest kept one (recovery
// starts from that snapshot, so it never replays them). Nothing is
// removed until retain snapshots exist. The open segment is always the
// newest and is never removed. Failures are logged, not returned: a
// file left behind only costs space.
func (p *persister) prune() {
	if p.retain <= 0 {
		return
	}
	snaps, err := snapshot.List(p.fsys, p.dir) // newest first
	if err != nil {
		p.logger.Printf("rpi: retention: list snapshots: %v", err)
		return
	}
	if len(snaps) < p.retain {
		return
	}
	remove := func(name string) {
		if err := p.fsys.Remove(p.dir + "/" + name); err != nil {
			p.logger.Printf("rpi: retention: remove %s: %v", name, err)
		}
	}
	floor := snaps[p.retain-1].Seq
	removed := len(snaps) - p.retain
	for _, s := range snaps[p.retain:] {
		remove(s.Name)
	}
	names, err := p.fsys.ReadDir(p.dir)
	if err != nil {
		p.logger.Printf("rpi: retention: list log segments: %v", err)
		return
	}
	var segs []string
	for _, n := range names {
		if _, ok := wal.ParseSegmentName(n); ok {
			segs = append(segs, n) // ReadDir sorts: seq order
		}
	}
	// Segment i holds the records after its first seq up to the next
	// segment's first seq.
	for i := 0; i+1 < len(segs); i++ {
		if next, _ := wal.ParseSegmentName(segs[i+1]); next <= floor {
			remove(segs[i])
			removed++
		}
	}
	if removed > 0 {
		if err := p.fsys.SyncDir(p.dir); err != nil {
			p.logger.Printf("rpi: retention: sync dir: %v", err)
		}
	}
}

// logDelta validates a resolved delta and journals it before it
// mutates the engine, returning the token that applies it. Caller
// holds the write lock.
func (e *Engine) logDelta(d Delta) (core.Validated, error) {
	p := e.pers
	if p.broken != nil {
		return core.Validated{}, fmt.Errorf("%w: %v", ErrPersistence, p.broken)
	}
	v, err := e.validate(d)
	if err != nil {
		return core.Validated{}, err
	}
	if err := p.w.Append(encodeDelta(d)); err != nil {
		p.broken = err
		return core.Validated{}, fmt.Errorf("%w: append delta record: %v", ErrPersistence, err)
	}
	return v, nil
}

// maybeSnapshot publishes an automatic snapshot when enough deltas
// have accumulated since the last one. Failures are logged, not
// returned: a missed snapshot only lengthens the next recovery's
// replay, and the log append that matters has already succeeded.
func (e *Engine) maybeSnapshot() {
	p, seq := e.pers, e.Seq()
	if p == nil || p.broken != nil || p.snapEvery == 0 || seq-p.lastSnap < p.snapEvery {
		return
	}
	if err := e.snapshotLocked(true); err != nil {
		p.logger.Printf("rpi: automatic snapshot at seq %d failed: %v", seq, err)
	}
}
