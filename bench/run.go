package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rpeer/internal/netsim"
	"rpeer/pkg/rpi"
)

// workload is one deployment scenario. Every workload runs the same
// life cycle, in rounds spread over the run: bring the plane up from
// the start state, serve a slice of open-loop traffic, probe read
// capacity, shut down. Workloads differ in world size, start path and
// traffic mix.
type workload struct {
	name string
	why  string
	// scale is the world-size factor (1 = the paper's 30-IXP scale).
	scale int
	// recover starts every round from a crash image rather than an
	// empty data dir.
	recover bool
	// readRate is the reads' open-loop arrival rate (per second). A
	// non-zero applyRate makes applies arrive open-loop beside the reads,
	// on a connection of their own; without one, a client applies back
	// to back in a slice of its own after the reads, so no read ever
	// waits on an apply.
	readRate, applyRate float64
}

// A run brings the plane up rounds times; setup_s is the median. Of
// the measured seconds, capShare goes to the closed-loop capacity
// probes and the rest to traffic, of which readShare goes to the reads
// when applies do not arrive beside them.
const (
	rounds    = 8
	capShare  = 0.25
	readShare = 0.5
)

// readLimitMs is the latency limit a verdict read is held to, from its
// due time. Unhindered reads take 1–4 ms at every scale the workloads
// run; a read that waits on an apply's write lock, or on the re-marshal
// of a report an apply invalidated, mostly takes 10–80 ms.
const readLimitMs = 10

// outcome is what one run measured and checked.
type outcome struct {
	metrics   map[string]float64 // end-to-end, untraced, plus reported-only figures
	layer     map[string]float64 // per-layer, traced runs only
	samples   map[string]int     // how many samples each latency figure rests on
	attempted int
	failed    int
	problems  []string
	spans     []span
}

// check records one verified operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.problems) < 20 {
			o.problems = append(o.problems, fmt.Sprintf(format, args...))
		}
	}
}

// runner is one run's state across its rounds.
type runner struct {
	w        workload
	wd       *world
	o        *outcome
	tr       *tracer // nil when untraced
	dir      string
	image    string   // the start state every round copies
	want     []byte   // the report a correct start serves
	hist     *history // what the plane serves at each seq reads can see
	startSeq uint64
	seed     int64
	seconds  float64
	c1, c2   *client
	rng      *rand.Rand

	setups, tracedSetups, heaps, rps  []float64
	full, ixp, apply, late, svc, wait dist
	backlog                           int
}

// runWorkload runs w once over a world generated from cfg and seed,
// inside a fresh directory under work. Errors are failures of the
// benchmark itself; failures of the program under test are counted in
// the outcome.
func runWorkload(w workload, cfg netsim.Config, seed int64, seconds float64, traced bool, work string) (*outcome, error) {
	dir, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ru := &runner{
		w: w, dir: dir, seed: seed, seconds: seconds,
		o:     &outcome{metrics: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}},
		image: filepath.Join(dir, "image"),
		c1:    newClient(), c2: newClient(),
		rng: rand.New(rand.NewSource(seed)),
	}
	defer ru.c1.close()
	defer ru.c2.close()
	if traced {
		ru.tr = newTracer()
	}

	// Untimed preparation: the world on disk, the start state, and what
	// a correct plane serves at every seq a round's reads can see: the
	// start's, and each one the applies beside them reach.
	if ru.wd, err = makeWorld(cfg, seed, dir); err != nil {
		return nil, err
	}
	if w.recover {
		ru.startSeq = recoverSeq
		ru.want, err = crashImage(ru.wd, filepath.Join(dir, "live"), ru.image)
	} else {
		err = os.Mkdir(ru.image, 0o755) // a fresh start finds an empty dir
	}
	if err != nil {
		return nil, err
	}
	last := ru.startSeq
	if w.applyRate > 0 {
		last += uint64(count(w.applyRate, trafficSecs(seconds)))
	}
	if ru.hist, err = ru.wd.history(ru.startSeq, last); err != nil {
		return nil, err
	}
	if ru.want == nil {
		// A fresh start from the world file serves what an engine built
		// over the generated inputs does.
		ru.want = ru.hist.full[0]
	}

	var win *window
	if traced {
		win = openWindow()
	}
	for r := 0; r < rounds; r++ {
		if err := ru.round(r); err != nil {
			return nil, err
		}
	}
	ru.summarize()
	if traced {
		win.close(ru.o.layer)
		if err := ru.probe(); err != nil {
			return nil, err
		}
	}
	return ru.o, nil
}

// round brings the plane up from the start state, serves one slice of
// the run's traffic, probes capacity, and shuts the plane down.
func (ru *runner) round(r int) (err error) {
	o, w, tr := ru.o, ru.w, ru.tr
	last := r == rounds-1
	startDir := filepath.Join(ru.dir, fmt.Sprintf("round%d", r))
	if err := copyDir(ru.image, startDir); err != nil {
		return err
	}
	defer os.RemoveAll(startDir)

	// Set-up: inputs on disk to the first full report. A traced run
	// traces every other set-up, so the two medians give the tracing
	// overhead.
	spanned := tr != nil && r%2 == 1
	tr.enable(spanned)
	heap0 := liveHeap()
	sp := tr.begin("setup", 0, 0)
	t0 := time.Now()
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = tr.serverSpans
	}
	in, err := startPlane(startDir, ru.wd.rpw, nil, wrap)
	if err != nil {
		return err
	}
	defer func() {
		if serr := in.stop(); err == nil {
			err = serr
		}
	}()
	served, err := getOK(ru.c1, in.base+"infer", sp.id())
	took := time.Since(t0).Seconds()
	sp.end()
	if err != nil {
		return fmt.Errorf("round %d start: %w", r+1, err)
	}
	ru.heaps = append(ru.heaps, (liveHeap()-heap0)/1e6)
	if spanned {
		ru.tracedSetups = append(ru.tracedSetups, took)
	} else {
		ru.setups = append(ru.setups, took)
	}
	o.check(bytes.Equal(served, ru.want), "round %d: the start served another report than the start state's", r+1)
	if r == 0 {
		acc, err := ru.wd.accuracy(served)
		if err != nil {
			return err
		}
		o.metrics["acc_pct"], o.metrics["cov_pct"], o.metrics["fpr_pct"] = 100*acc.ACC, 100*acc.COV, 100*acc.FPR
	}
	eng, err := in.engine()
	if err != nil {
		return err
	}

	// Requests. Reads alternate full reports and per-IXP reports,
	// round-robin over every IXP. Each must serve the twin's report at a
	// seq between the newest acknowledged apply when it was sent and the
	// newest apply sent by the time it completed. Only the one client
	// that applies moves sent and acked.
	var sent, acked atomic.Uint64
	sent.Store(ru.startSeq)
	acked.Store(ru.startSeq)
	read := func(c *client, i int) bool {
		url, name, ixp := in.base+"infer", "client.infer", ""
		if i%2 == 1 {
			ixp = ru.wd.ixps[(i/2)%len(ru.wd.ixps)]
			url, name = in.base+"report/"+ixp, "client.report"
		}
		sp := tr.request(name)
		lo := acked.Load()
		status, body, err := c.do(http.MethodGet, url, nil, sp.id())
		hi := sent.Load()
		sp.end()
		return err == nil && status == http.StatusOK && ru.hist.serves(body, ixp, lo, hi)
	}
	apply := func(c *client, _ int) bool {
		seq := sent.Load()
		_, body := ru.wd.delta(seq)
		sent.Store(seq + 1)
		sp := tr.request("client.apply")
		status, resp, err := c.do(http.MethodPost, in.base+"apply", body, sp.id())
		sp.end()
		if err != nil || status != http.StatusOK {
			return false
		}
		var up struct{ Seq uint64 }
		if json.Unmarshal(resp, &up) != nil || up.Seq != seq+1 {
			return false
		}
		acked.Store(seq + 1)
		return true
	}
	slice := func(share float64) time.Duration {
		return time.Duration(share * ru.seconds / rounds * float64(time.Second))
	}

	// Closed-loop read capacity over the start's publication, untraced.
	tr.enable(false)
	t0 = time.Now()
	capacity := closedLoop(slice(capShare), []*client{ru.c1, ru.c2}, read)
	okReads := 0
	for _, s := range capacity {
		if s.ok {
			okReads++
		}
	}
	ru.rps = append(ru.rps, float64(okReads)/time.Since(t0).Seconds())
	o.attempted += len(capacity)
	if bad := len(capacity) - okReads; bad > 0 {
		o.failed += bad
		o.problems = append(o.problems, fmt.Sprintf("round %d: %d of %d capacity reads failed", r+1, bad, len(capacity)))
	}

	// Traffic. Reads are open-loop Poisson arrivals. Applies arrive
	// open-loop beside them when the workload has an apply rate; else a
	// single client applies back to back once the reads are done, as a
	// registry sync job would.
	tr.enable(tr != nil)
	var stopWait func() dist
	if tr != nil {
		stopWait = probeSnapshotWait(eng, tr, ru.seed+int64(r))
	}
	open := trafficSecs(ru.seconds)
	var reads, applies []sample
	var readDue, applyDue []time.Duration
	if w.applyRate > 0 {
		readDue = poisson(ru.rng, w.readRate, count(w.readRate, open))
		applyDue = poisson(ru.rng, w.applyRate, count(w.applyRate, open))
		start := time.Now()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			applies = openLoop(start, applyDue, []*client{ru.c2}, apply)
		}()
		reads = openLoop(start, readDue, []*client{ru.c1}, read)
		wg.Wait()
	} else {
		readDue = poisson(ru.rng, w.readRate, count(w.readRate, readShare*open))
		reads = openLoop(time.Now(), readDue, []*client{ru.c1, ru.c2}, read)
		applies = closedLoop(slice((1-capShare)*(1-readShare)), []*client{ru.c1}, apply)
	}
	if tr != nil {
		ru.wait = append(ru.wait, stopWait()...)
		tr.enable(false)
	}
	for i, s := range reads {
		if i%2 == 0 {
			ru.full.add(s.lat)
		} else {
			ru.ixp.add(s.lat)
		}
		ru.late.add(s.late)
		ru.svc.add(s.svc)
		o.check(s.ok, "round %d: read %d failed or differed from the publication", r+1, i)
	}
	for i, s := range applies {
		ru.apply.add(s.lat)
		ru.late.add(s.late)
		o.check(s.ok, "round %d: apply %d failed", r+1, i)
	}
	ru.backlog += backlogAtEnd(readDue, reads) + backlogAtEnd(applyDue, applies)

	// The settled publication: the plane must serve what its engine
	// holds, and what the twin held at that seq where the history
	// reaches it. In the last round it must also equal a cold rebuild
	// over the engine's inputs (incremental Apply is byte-identical to
	// New).
	seq := acked.Load()
	held, err := rpi.MarshalReport(eng.Snapshot())
	if err != nil {
		return err
	}
	body, err := getOK(ru.c1, in.base+"infer", 0)
	o.check(err == nil && bytes.Equal(body, held), "round %d: after %d applies the plane serves another report than its engine holds (%v)", r+1, seq-ru.startSeq, err)
	if w.applyRate > 0 {
		o.check(ru.hist.serves(body, "", seq, seq), "round %d: at seq %d the plane serves another report than the twin engine", r+1, seq)
	}
	if last {
		cold, err := coldReport(eng.Inputs())
		if err != nil {
			return err
		}
		o.check(bytes.Equal(body, cold), "after %d applies the plane's report differs from a cold rebuild", seq-ru.startSeq)
	}
	if tr != nil {
		o.layer["serve.shed"] += float64(in.hs.Admission().TotalShed())
	}
	return nil
}

// summarize turns the rounds' samples into the run's metrics: medians
// over rounds of the per-round figures, and percentiles of every
// request the run made.
func (ru *runner) summarize() {
	m := ru.o.metrics
	m["setup_s"] = median(ru.setups)
	m["heap_mb"] = median(ru.heaps)
	m["read_rps"] = median(ru.rps)
	for _, l := range []struct {
		name string
		d    dist
	}{{"read", ru.full}, {"ixp", ru.ixp}, {"apply", ru.apply}} {
		m[l.name+"_p50_ms"], m[l.name+"_p90_ms"], m[l.name+"_tail_ms"] = l.d.p50(), l.d.p90(), l.d.tail()
		for _, s := range []string{"_p50_ms", "_p90_ms", "_tail_ms"} {
			ru.o.samples[l.name+s] = len(l.d)
		}
	}
	reads := len(ru.full) + len(ru.ixp)
	m["read_within_10ms_pct"] = 100 * float64(ru.full.within(readLimitMs)+ru.ixp.within(readLimitMs)) / float64(reads)
	ru.o.samples["read_within_10ms_pct"] = reads
	if ru.tr == nil {
		return
	}
	L := ru.o.layer
	L["rpi.snapshot_wait_ms_p50"], L["rpi.snapshot_wait_ms_tail"] = ru.wait.p50(), ru.wait.tail()
	L["gen.late_tail_ms"] = ru.late.tail()
	L["gen.backlog_end"] = float64(ru.backlog)
	L["serve.client_ms_p50"] = ru.svc.p50()
	for _, r := range []string{"infer", "report", "apply"} {
		d := ru.tr.served(r)
		L["serve."+r+"_ms_p50"], L["serve."+r+"_ms_tail"] = d.p50(), d.tail()
	}
}

// probe runs the traced run's layer probes once the rounds are done.
// The recovery layers are measured on a crash image of the run's world:
// a recover run's own start state, or one built now the same way.
func (ru *runner) probe() error {
	recImage := ru.image
	if !ru.w.recover {
		recImage = filepath.Join(ru.dir, "recovery")
		if _, err := crashImage(ru.wd, filepath.Join(ru.dir, "live"), recImage); err != nil {
			return err
		}
	}
	ru.tr.enable(true)
	if err := probeLayers(ru.o, ru.tr, ru.wd, ru.image, recImage, ru.dir, ru.tracedSetups, ru.setups); err != nil {
		return err
	}
	ru.o.spans = ru.tr.spans
	return nil
}

// trafficSecs is one round's open-loop traffic time.
func trafficSecs(seconds float64) float64 {
	return (1 - capShare) * seconds / rounds
}

// count is the number of arrivals a rate yields over secs, at least 1.
func count(rate, secs float64) int {
	return max(1, int(math.Round(rate*secs)))
}

// coldReport is the wire report of an engine built from scratch over in.
func coldReport(in rpi.Inputs) ([]byte, error) {
	eng, err := rpi.New(in)
	if err != nil {
		return nil, err
	}
	return rpi.MarshalReport(eng.Snapshot())
}
