package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"rpeer/internal/admission"
	"rpeer/internal/bot"
	"rpeer/internal/host"
	"rpeer/internal/supervisor"
	"rpeer/internal/wal"
	"rpeer/pkg/rpi"
	"rpeer/pkg/rpi/serve"
)

// The bounds fault mode holds the serving plane to.
const (
	// recoveryBound applies separately to a fault being observed, to
	// the quarantine healing, and to a real apply committing again.
	recoveryBound = 30 * time.Second
	// readP99Bound caps the p99 of admitted full and per-IXP reads.
	readP99Bound = 2 * time.Second
)

// faultServe is the front end's fixed configuration in fault mode:
// limits so tight that the load saturates them, so the shedding path
// is exercised, not just available.
var faultServe = serve.Config{
	Admission: admission.Config{
		Cheap:  admission.Limits{Slots: 4, Queue: 4, MaxWait: 500 * time.Millisecond},
		Read:   admission.Limits{Slots: 2, Queue: 2, MaxWait: 500 * time.Millisecond},
		Write:  admission.Limits{Slots: 1, Queue: 2, MaxWait: time.Second},
		Stream: admission.Limits{Slots: 2},
	},
	RequestTimeout:     2 * time.Second,
	StreamWriteTimeout: 500 * time.Millisecond,
	StreamBuffer:       2,
	Logger:             log.New(io.Discard, "", 0),
}

// injector makes the in-process host's engines fail on demand: they
// share one fault-injectable filesystem, and their apply hook panics
// once after being armed.
type injector struct {
	fsys  *wal.MemFS
	armed atomic.Bool
}

// options are the engine options that wire the injector in.
func (inj *injector) options() []rpi.Option {
	return []rpi.Option{
		rpi.WithWALFS(inj.fsys),
		// Append-only fs traffic: an injected error lands on a log
		// append, never on a background snapshot.
		rpi.WithSnapshotEvery(0),
		rpi.WithApplyHook(func(uint64, rpi.Delta) {
			if inj.armed.CompareAndSwap(true, false) {
				panic("rpi-bot: injected engine fault")
			}
		}),
	}
}

// drive runs n fault cycles against the running load: odd cycles arm
// the engine panic, even cycles fail the next WAL operation. Each cycle
// waits for the fault to be observed, for the quarantine to heal and
// for a real apply to commit on every tenant, then checks each
// tenant's served bytes against a cold rebuild while that tenant's
// writes are paused, and that sequence continuity held.
func (inj *injector) drive(load *bot.Load, h *host.Host, base string, names []string, n int) error {
	for cycle := 1; cycle <= n; cycle++ {
		fail := func(err error) error {
			return fmt.Errorf("cycle %d: %w (%+v)", cycle, err, fleetStats(h))
		}
		time.Sleep(300 * time.Millisecond) // steady-state traffic between faults
		if cycle%2 == 1 {
			log.Printf("cycle %d: arming an engine panic mid-apply", cycle)
			inj.armed.Store(true)
		} else {
			log.Printf("cycle %d: failing the next WAL append", cycle)
			inj.fsys.InjectAt(1, wal.Fault{Mode: wal.FaultError})
		}
		// The appliers trip it; nudge with one direct apply in case
		// they are all being shed right now.
		load.Apply(names[cycle%len(names)], int64(cycle))

		want := uint64(cycle)
		if err := waitFor("fault observed", func() bool { return fleetStats(h).Faults >= want }); err != nil {
			return fail(err)
		}
		if err := waitFor("recovery", func() bool {
			s := fleetStats(h)
			return s.Recoveries >= want && !s.Quarantined
		}); err != nil {
			return fail(err)
		}
		for _, tn := range names {
			if err := waitFor(tn+" writable", func() bool { return load.Apply(tn, time.Now().UnixNano()) }); err != nil {
				return fail(err)
			}
			resume := load.Pause(tn)
			err := verifyByteIdentity(h, base, []string{tn})
			resume()
			if err != nil {
				return fail(err)
			}
		}
		if v := fleetStats(h).ContinuityViolations; v != 0 {
			return fail(fmt.Errorf("%d sequence continuity violations", v))
		}
		log.Printf("cycle %d: recovered to writable, served bytes match a cold rebuild", cycle)
	}
	return nil
}

// checkFaultRun checks what a fault run must show as a whole: every
// fault matched by one recovery, shedding observed, admitted reads
// fast, and the plane answering once the load has stopped.
func checkFaultRun(rep *bot.Report, h *host.Host, base string, names []string, n int) error {
	if s := fleetStats(h); s.Faults != uint64(n) || s.Recoveries != uint64(n) {
		return fmt.Errorf("fault accounting: %d faults, %d recoveries, want %d each", s.Faults, s.Recoveries, n)
	}
	var shed uint64
	for tn, classes := range rep.Tenants {
		for cl, st := range classes {
			shed += st.Shed
			if (cl == "read" || cl == "cheap") && st.P99Ms > float64(readP99Bound)/float64(time.Millisecond) {
				return fmt.Errorf("tenant %s: admitted %s p99 %.0f ms exceeds %s", tn, cl, st.P99Ms, readP99Bound)
			}
		}
	}
	if shed == 0 {
		return errors.New("load shedding never observed (no 503)")
	}
	cl := &http.Client{Timeout: 10 * time.Second}
	for _, url := range []string{base + "/healthz", base + "/v1/t/" + names[0] + "/infer"} {
		if _, err := getBody(cl, url); err != nil {
			return fmt.Errorf("final read: %w", err)
		}
	}
	return nil
}

// fleetStats sums the supervisor counters over every tenant;
// Quarantined is set while any tenant is healing.
func fleetStats(h *host.Host) supervisor.Stats {
	var s supervisor.Stats
	for _, st := range h.Tenants() {
		s.Faults += st.Faults
		s.Recoveries += st.Recoveries
		s.ContinuityViolations += st.ContinuityViolations
		s.Quarantined = s.Quarantined || st.State == "quarantined"
	}
	return s
}

// waitFor polls ok until it holds or recoveryBound expires.
func waitFor(what string, ok func() bool) error {
	deadline := time.Now().Add(recoveryBound)
	for !ok() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not reached within %s", what, recoveryBound)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
