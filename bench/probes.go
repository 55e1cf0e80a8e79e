package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rpeer/internal/core"
	"rpeer/internal/snapshot"
	"rpeer/internal/wal"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
)

// Probe sizes: decompositions of a start, warm pipeline runs, applies
// on the twins, and fsynced WAL appends.
const (
	decompReps  = 3
	warmReps    = 3
	applyProbes = 16
	walAppends  = 200
	ixpProbes   = 64
)

// stepNames are the per-step span names (metric names allow no '+').
var stepNames = []struct {
	step rpi.Step
	name string
}{
	{rpi.StepPortCapacity, "port-capacity"},
	{rpi.StepRTTColo, "rtt-colo"},
	{rpi.StepMultiIXP, "multi-ixp"},
	{rpi.StepPrivate, "private-links"},
}

// decomp is one start re-run as the public calls rpi.Open makes, in its
// order, each in a span of its own, over the on-disk state a start
// found: load the world file, find the newest snapshot, restore its
// columns (or, on an empty dir, clone the dataset), build the context,
// scan the log, replay its tail, run the pipeline cold, compute the
// baseline, open a log segment, and marshal the first report.
type decomp struct {
	spans    map[string]span
	restored bool     // a snapshot was found
	tail     int      // log records past the snapshot
	records  [][]byte // every log record, for the WAL append probe
	ctx      *core.Context
	seq      uint64 // the context's sequence number after replay
}

// onPath is the production time the decomposition explains.
func (d *decomp) onPath() time.Duration {
	names := []string{"worldfile.load", "snapshot.latest", "core.context", "wal.scan",
		"recover.replay", "core.run_cold", "core.baseline", "wal.create", "rpi.marshal_full"}
	if d.restored {
		names = append(names, "core.restore")
	} else {
		names = append(names, "registry.clone")
	}
	var sum time.Duration
	for _, n := range names {
		sum += d.spans[n].dur()
	}
	return sum
}

func decompose(tr *tracer, wd *world, dataDir, scratch string) (*decomp, error) {
	root := tr.begin("decompose", 0, 0)
	defer root.end()
	d := &decomp{spans: map[string]span{}}
	step := func(name string, fn func() error) error {
		a := tr.begin(name, root.id(), 0)
		err := fn()
		d.spans[name] = a.end()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	fsys := wal.OS()
	tdir := filepath.Join(dataDir, "tenants", tenant)
	if err := fsys.MkdirAll(tdir); err != nil {
		return nil, err
	}

	var base, in rpi.Inputs
	var snap *snapshot.Snap
	var err error
	if err := step("worldfile.load", func() error {
		base, err = worldfile.Load(wd.rpw)
		return err
	}); err != nil {
		return nil, err
	}
	if err := step("snapshot.latest", func() error {
		snap, _, _, d.restored, err = snapshot.Latest(fsys, tdir, math.MaxUint64)
		return err
	}); err != nil {
		return nil, err
	}
	in = base
	if d.restored {
		d.seq = snap.Seq
		if err := step("core.restore", func() error {
			in, err = core.RestoreInputs(base, snap)
			return err
		}); err != nil {
			return nil, err
		}
	}
	// On the restore path the clone happens inside RestoreInputs; it is
	// timed here on its own, off the path, so every workload reports it.
	if err := step("registry.clone", func() error {
		ds := base.Dataset.Clone()
		if !d.restored {
			in.Dataset = ds
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := step("core.context", func() error {
		d.ctx, err = core.NewContext(in)
		return err
	}); err != nil {
		return nil, err
	}
	if err := step("wal.scan", func() error {
		names, err := fsys.ReadDir(tdir)
		if err != nil {
			return err
		}
		for _, n := range names {
			first, ok := wal.ParseSegmentName(n)
			if !ok {
				continue
			}
			rec := first
			if _, err := wal.Scan(fsys, filepath.Join(tdir, n), func(_ int64, p []byte) error {
				rec++
				d.records = append(d.records, append([]byte(nil), p...))
				if rec > d.seq {
					d.tail++
				}
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// The log records are the wire deltas the run posted, which the
	// benchmark regenerates from their sequence numbers.
	if err := step("recover.replay", func() error {
		for i := 0; i < d.tail; i++ {
			delta, _ := wd.delta(d.seq)
			if err := d.ctx.Apply(delta); err != nil {
				return err
			}
			d.seq++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var rep *rpi.Report
	if err := step("core.run_cold", func() error {
		rep, err = d.ctx.Run(core.DefaultOptions())
		return err
	}); err != nil {
		return nil, err
	}
	if err := step("core.baseline", func() error {
		_, err := d.ctx.Baseline(rpi.DefaultBaselineThresholdMs)
		return err
	}); err != nil {
		return nil, err
	}
	if err := step("wal.create", func() error {
		segDir, err := os.MkdirTemp(scratch, "segment-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(segDir)
		w, err := wal.Create(fsys, segDir, wal.SegmentName(d.seq),
			wal.Header{Fingerprint: core.Fingerprint(base), FirstSeq: d.seq},
			wal.Policy{Mode: wal.SyncEveryRecord})
		if err != nil {
			return err
		}
		return w.Close()
	}); err != nil {
		return nil, err
	}
	if err := step("rpi.marshal_full", func() error {
		_, err := rpi.MarshalReport(rep)
		return err
	}); err != nil {
		return nil, err
	}
	return d, nil
}

// probeLayers times each layer's public calls on their own, after the
// traffic has stopped, and writes the per-layer metrics into o.layer.
// setupState is the on-disk state every start of the run found;
// recImage is a crash image of the same world (a snapshot plus a log
// tail), which may be the same dir.
func probeLayers(o *outcome, tr *tracer, wd *world, setupState, recImage, scratch string, tracedSetups, setups []float64) error {
	L := o.layer
	var runs []*decomp
	for i := 0; i < decompReps; i++ {
		runtime.GC() // as before every production start
		d, err := decompose(tr, wd, setupState, scratch)
		if err != nil {
			return fmt.Errorf("decompose start: %w", err)
		}
		if i > 0 {
			runs[i-1].ctx = nil // keep one context alive, not three
		}
		runs = append(runs, d)
	}
	med := func(ds []*decomp, f func(*decomp) float64) float64 {
		vs := make([]float64, len(ds))
		for i, d := range ds {
			vs[i] = f(d)
		}
		return median(vs)
	}
	secs := func(ds []*decomp, name string) float64 {
		return med(ds, func(d *decomp) float64 { return d.spans[name].dur().Seconds() })
	}
	L["worldfile.load_s"] = secs(runs, "worldfile.load")
	L["worldfile.alloc_mb"] = med(runs, func(d *decomp) float64 { return float64(d.spans["worldfile.load"].AllocBytes) / 1e6 })
	L["worldfile.alloc_objects"] = med(runs, func(d *decomp) float64 { return float64(d.spans["worldfile.load"].AllocObjects) })
	L["worldfile.file_mb"] = wd.fileMB
	L["registry.clone_s"] = secs(runs, "registry.clone")
	L["core.context_s"] = secs(runs, "core.context")
	L["core.context_alloc_mb"] = med(runs, func(d *decomp) float64 { return float64(d.spans["core.context"].AllocBytes) / 1e6 })
	L["core.context_alloc_objects"] = med(runs, func(d *decomp) float64 { return float64(d.spans["core.context"].AllocObjects) })
	L["core.run_cold_s"] = secs(runs, "core.run_cold")
	L["core.baseline_s"] = secs(runs, "core.baseline")
	L["wal.create_s"] = secs(runs, "wal.create")
	setupTraced := median(tracedSetups)
	L["setup.traced_s"] = setupTraced
	L["setup.unattributed_s"] = setupTraced - med(runs, func(d *decomp) float64 { return d.onPath().Seconds() })
	L["trace.overhead_pct"] = 100 * (setupTraced/median(setups) - 1)

	// Recovery layers: a recover run's starts already are recoveries.
	rec := runs
	if recImage != setupState {
		runtime.GC()
		d, err := decompose(tr, wd, recImage, scratch)
		if err != nil {
			return fmt.Errorf("decompose recovery: %w", err)
		}
		d.ctx = nil
		rec = []*decomp{d}
	}
	L["snapshot.latest_s"] = secs(rec, "snapshot.latest")
	L["core.restore_s"] = secs(rec, "core.restore")
	L["wal.scan_s"] = secs(rec, "wal.scan")
	L["recover.replay_s"] = secs(rec, "recover.replay")
	L["wal.tail_records"] = med(rec, func(d *decomp) float64 { return float64(d.tail) })

	// The warm pipeline and the incremental path, on the last start's
	// context: the same calls Engine.Apply makes after its log append.
	last := runs[len(runs)-1]
	ctx, opt := last.ctx, core.DefaultOptions()
	var warm, apply, rerun dist
	for i := 0; i < warmReps; i++ {
		a := tr.begin("core.run_warm", 0, 0)
		_, err := ctx.Run(opt)
		warm.add(a.end().dur())
		if err != nil {
			return err
		}
	}
	L["core.run_warm_s"] = warm.p50() / 1e3
	for _, s := range stepNames {
		var d dist
		for i := 0; i < warmReps; i++ {
			a := tr.begin("core.step."+s.name, 0, 0)
			_, err := ctx.RunStep(opt, s.step)
			d.add(a.end().dur())
			if err != nil {
				return err
			}
		}
		L["core.step."+s.name+"_s"] = d.p50() / 1e3
	}
	seq := last.seq
	for i := 0; i < applyProbes; i++ {
		delta, _ := wd.delta(seq)
		a := tr.begin("core.apply", 0, 0)
		err := ctx.Apply(delta)
		apply.add(a.end().dur())
		if err != nil {
			return fmt.Errorf("twin context apply %d: %w", seq+1, err)
		}
		a = tr.begin("core.rerun", 0, 0)
		_, err = ctx.Run(opt)
		rerun.add(a.end().dur())
		if err != nil {
			return err
		}
		seq++
	}
	L["core.apply_ms_p50"] = apply.p50()
	L["core.rerun_ms_p50"] = rerun.p50()
	last.ctx, ctx = nil, nil

	// An in-memory twin engine: Engine.Apply without the log, and the
	// report reads the serving plane makes.
	eng, err := rpi.New(wd.in)
	if err != nil {
		return err
	}
	var engApply, full, reportFor, marshalIXP dist
	for i := uint64(0); i < applyProbes; i++ {
		delta, _ := wd.delta(i)
		a := tr.begin("rpi.engine_apply", 0, 0)
		_, err := eng.Apply(context.Background(), delta)
		engApply.add(a.end().dur())
		if err != nil {
			return fmt.Errorf("twin engine apply %d: %w", i+1, err)
		}
	}
	for i := 0; i < warmReps; i++ {
		a := tr.begin("rpi.marshal_full", 0, 0)
		_, err := rpi.MarshalReport(eng.Snapshot())
		full.add(a.end().dur())
		if err != nil {
			return err
		}
	}
	for i := 0; i < ixpProbes; i++ {
		ixp := wd.ixps[i%len(wd.ixps)]
		a := tr.begin("rpi.report_for", 0, 0)
		rep, err := eng.ReportFor(context.Background(), ixp)
		reportFor.add(a.end().dur())
		if err != nil {
			return err
		}
		a = tr.begin("rpi.marshal_ixp", 0, 0)
		_, err = rpi.MarshalReport(rep)
		marshalIXP.add(a.end().dur())
		if err != nil {
			return err
		}
	}
	L["rpi.engine_apply_ms_p50"] = engApply.p50()
	L["rpi.marshal_full_ms"] = full.p50()
	L["rpi.report_for_ms_p50"] = reportFor.p50()
	L["rpi.marshal_ixp_ms_p50"] = marshalIXP.p50()

	// Fsynced appends of the run's own log records, as SyncEveryDelta
	// makes them.
	records := rec[len(rec)-1].records
	if len(records) == 0 {
		records = wd.bodies
	}
	segDir, err := os.MkdirTemp(scratch, "append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(segDir)
	lw, err := wal.Create(wal.OS(), segDir, wal.SegmentName(0), wal.Header{}, wal.Policy{Mode: wal.SyncEveryRecord})
	if err != nil {
		return err
	}
	var appends dist
	for i := 0; i < walAppends; i++ {
		a := tr.begin("wal.append", 0, 0)
		err := lw.Append(records[i%len(records)])
		appends.add(a.end().dur())
		if err != nil {
			lw.Close()
			return err
		}
	}
	if err := lw.Close(); err != nil {
		return err
	}
	L["wal.append_ms_p50"], L["wal.append_ms_tail"] = appends.p50(), appends.tail()
	return nil
}

// probeSnapshotWait times Engine.SnapshotSeq, which takes the engine's
// read lock, at Poisson arrivals of about 50/s until the returned stop
// function is called. Under churn it waits behind applies holding the
// write lock; without churn it never waits.
func probeSnapshotWait(eng *rpi.Engine, tr *tracer, seed int64) func() dist {
	stop, done := make(chan struct{}), make(chan dist)
	go func() {
		rng := rand.New(rand.NewSource(seed + 1))
		var d dist
		for {
			gap := time.Duration(rng.ExpFloat64() / 50 * float64(time.Second))
			select {
			case <-stop:
				done <- d
				return
			case <-time.After(gap):
			}
			a := tr.begin("rpi.snapshot_seq", 0, 0)
			t0 := time.Now()
			eng.SnapshotSeq()
			d.add(time.Since(t0))
			a.end()
		}
	}()
	return func() dist {
		close(stop)
		return <-done
	}
}
