// Command rpi-chaos is the liveness proof of the serving plane: it
// stands up the full production wiring — a one-tenant host whose
// persistent engine runs over a fault-injectable in-memory filesystem,
// its supervisor guard, admission control, the HTTP front end on a
// real listener, reached through the short /v1 routes of the default
// tenant — drives it with a mixed
// workload (readers, streamers, a deliberately stalled streamer,
// appliers, a deadline storm), injects engine faults while the traffic
// runs, and asserts the overload/self-healing SLOs:
//
//   - no deadlock or crash: the plane answers /healthz throughout;
//   - bounded latency for admitted reads (p99 under -p99-bound) —
//     overload answers fast 503s instead of queueing without bound;
//   - load shedding is observable: at least one 503 carries Retry-After;
//   - every injected fault (engine panic mid-apply, WAL append error)
//     quarantines the engine, reads keep serving, and the supervisor
//     re-Opens from the journal to a writable plane within
//     -recovery-bound, with sequence continuity intact;
//   - after each recovery the served report is byte-identical to a
//     cold engine rebuilt over the same inputs (the determinism
//     contract survives panic, abandon and replay).
//
// The run is deterministic in shape: -cycles fault cycles alternating
// the two fault kinds. The default is a short CI-friendly run; setting
// RPEER_CHAOS=1 (or -cycles) runs the long soak. Exit status 0 means
// every SLO held; any violation prints and exits 1.
//
// Usage:
//
//	rpi-chaos [-cycles N] [-seed N] [-recovery-bound 30s] [-p99-bound 2s] [-v]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rpeer/internal/admission"
	"rpeer/internal/host"
	"rpeer/internal/netsim"
	"rpeer/internal/supervisor"
	"rpeer/internal/wal"
	"rpeer/pkg/rpi"
	"rpeer/pkg/rpi/serve"
)

// tenant is the harness's one tenant, served through the short routes.
const tenant = "chaos"

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpi-chaos: ")
	cycles := flag.Int("cycles", 0, "fault cycles to run (0 = 2, or 8 with RPEER_CHAOS=1)")
	seed := flag.Int64("seed", 21, "world generation seed")
	recoveryBound := flag.Duration("recovery-bound", 30*time.Second, "max quarantine-to-writable time per fault")
	p99Bound := flag.Duration("p99-bound", 2*time.Second, "max p99 latency for admitted (200) reads")
	verbose := flag.Bool("v", false, "log supervisor and serve events")
	flag.Parse()

	n := *cycles
	if n == 0 {
		n = 2
		if os.Getenv("RPEER_CHAOS") != "" {
			n = 8
		}
	}
	if err := run(n, *seed, *recoveryBound, *p99Bound, *verbose); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	log.Printf("PASS: %d fault cycles, all SLOs held", n)
}

// harness is the in-process serving plane under test.
type harness struct {
	fsys  *wal.MemFS
	host  *host.Host
	guard *supervisor.Guard
	base  string // http://127.0.0.1:port
	ixp   string

	armed atomic.Bool // next apply panics inside the engine

	// applyMu serializes delta generation (and state-identity
	// verification) with delta application. ChurnDelta and a cold
	// rebuild both read the engine's live input maps (Inputs() is
	// documented read-only and mutated by later Applies), so neither
	// may run while another apply is in flight.
	applyMu sync.Mutex

	mu        sync.Mutex
	readLat   []time.Duration // latency of admitted (200) reads
	shed503   atomic.Uint64   // 503s carrying Retry-After
	badStatus atomic.Value    // first unexpected status, as string
}

func run(cycles int, seed int64, recoveryBound, p99Bound time.Duration, verbose bool) error {
	lg := log.New(io.Discard, "", 0)
	if verbose {
		lg = log.New(os.Stderr, "rpi-chaos: ", 0)
	}
	in, err := rpi.InputsFromConfig(netsim.TinyConfig(), seed)
	if err != nil {
		return err
	}
	h := &harness{fsys: wal.NewMemFS()}
	for _, name := range in.Dataset.PrefixIXP {
		h.ixp = name
		break
	}
	h.host, err = host.Open(host.Config{
		Inputs: func(host.TenantSpec) (rpi.Inputs, error) { return in, nil },
		Options: []rpi.Option{
			rpi.WithWALFS(h.fsys),
			// Append-only fs traffic: injected faults land on the log,
			// never on a background snapshot.
			rpi.WithSnapshotEvery(0),
			rpi.WithLogger(lg),
			rpi.WithApplyHook(func(uint64, rpi.Delta) {
				if h.armed.CompareAndSwap(true, false) {
					panic("rpi-chaos: injected engine fault")
				}
			}),
		},
		Logger: lg,
	})
	if err != nil {
		return err
	}
	defer h.host.Close()
	if err := h.host.Create(host.TenantSpec{Name: tenant}); err != nil {
		return err
	}

	// Deliberately tiny limits: the workload must saturate them so the
	// shedding path is exercised, not just available.
	front := serve.NewHost(h.host, tenant, serve.Config{
		Admission: admission.Config{
			Cheap:  admission.Limits{Slots: 4, Queue: 4, MaxWait: 500 * time.Millisecond},
			Read:   admission.Limits{Slots: 2, Queue: 2, MaxWait: 500 * time.Millisecond},
			Write:  admission.Limits{Slots: 1, Queue: 2, MaxWait: time.Second},
			Stream: admission.Limits{Slots: 2},
		},
		RequestTimeout:     2 * time.Second,
		StreamWriteTimeout: 500 * time.Millisecond,
		StreamBuffer:       2,
		Logger:             lg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: front}
	go srv.Serve(ln)
	defer srv.Close()
	h.base = "http://" + ln.Addr().String()
	// Live but not ready until the tenant's first lease opens its engine.
	if h.ready() {
		return fmt.Errorf("/readyz answered 200 before the tenant opened")
	}
	lease, err := h.host.Lease(context.Background(), tenant)
	if err != nil {
		return err
	}
	// The host never evicts here, so this guard serves the whole run:
	// recoveries republish into it.
	h.guard = lease.Guard()
	lease.Release()
	if err := h.waitReady(recoveryBound); err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	start := func(f func(ctx context.Context)) {
		wg.Add(1)
		go func() { defer wg.Done(); f(ctx) }()
	}
	for i := 0; i < 2; i++ {
		i := i
		start(func(ctx context.Context) { h.reader(ctx, i) })
	}
	start(h.streamer)
	start(h.stalledStreamer)
	for i := 0; i < 2; i++ {
		i := i
		start(func(ctx context.Context) { h.applier(ctx, seed+int64(100*i)) })
	}
	start(h.deadlineStorm)
	defer func() { cancel(); wg.Wait() }()

	// Fault cycles: alternate an engine panic mid-apply with a WAL
	// append failure, with live traffic throughout.
	for cycle := 0; cycle < cycles; cycle++ {
		time.Sleep(300 * time.Millisecond) // steady-state traffic between faults
		wantFaults := uint64(cycle + 1)
		if cycle%2 == 0 {
			log.Printf("cycle %d: injecting engine panic mid-apply", cycle+1)
			h.armed.Store(true)
			// The background appliers will trip it; nudge with one
			// direct apply in case they are all shedding right now.
			h.applyOnce(seed + int64(1000+cycle))
		} else {
			log.Printf("cycle %d: injecting WAL append failure", cycle+1)
			h.fsys.InjectAt(1, wal.Fault{Mode: wal.FaultError})
			h.applyOnce(seed + int64(1000+cycle))
		}

		if err := h.waitStat(recoveryBound, "fault observed", func(s supervisor.Stats) bool {
			return s.Faults >= wantFaults
		}); err != nil {
			return err
		}
		if err := h.waitStat(recoveryBound, "recovery", func(s supervisor.Stats) bool {
			return s.Recoveries >= wantFaults && !s.Quarantined
		}); err != nil {
			return err
		}
		if err := h.waitWritable(recoveryBound); err != nil {
			return fmt.Errorf("cycle %d: %v", cycle+1, err)
		}
		if err := h.verifyStateIdentity(); err != nil {
			return fmt.Errorf("cycle %d: %v", cycle+1, err)
		}
		if st := h.guard.Stats(); st.ContinuityViolations != 0 {
			return fmt.Errorf("cycle %d: %d sequence continuity violations", cycle+1, st.ContinuityViolations)
		}
		log.Printf("cycle %d: recovered to writable, state verified (seq %d)", cycle+1, h.guard.Engine().Seq())
	}
	cancel()
	wg.Wait()

	// Final SLO accounting.
	if v := h.badStatus.Load(); v != nil {
		return fmt.Errorf("unexpected response: %s", v)
	}
	st := h.guard.Stats()
	if st.Recoveries != uint64(cycles) || st.Faults != uint64(cycles) {
		return fmt.Errorf("fault accounting: %d faults, %d recoveries, want %d each", st.Faults, st.Recoveries, cycles)
	}
	if h.shed503.Load() == 0 {
		return fmt.Errorf("load shedding never observed (no 503 with Retry-After)")
	}
	p99 := h.readP99()
	if p99 > p99Bound {
		return fmt.Errorf("admitted-read p99 %s exceeds bound %s", p99, p99Bound)
	}
	for _, probe := range []string{"/healthz", "/v1/infer"} {
		resp, err := http.Get(h.base + probe)
		if err != nil {
			return fmt.Errorf("final %s: %v", probe, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("final %s: status %d", probe, resp.StatusCode)
		}
	}
	log.Printf("reads: %d admitted (p99 %s), %d shed with Retry-After; dropped stream updates: engine total %d",
		h.readCount(), p99.Round(time.Millisecond), h.shed503.Load(), h.guard.Engine().DroppedUpdates())
	return nil
}

// waitStat polls the guard's stats until ok or the bound expires.
func (h *harness) waitStat(bound time.Duration, what string, ok func(supervisor.Stats) bool) error {
	deadline := time.Now().Add(bound)
	for {
		if ok(h.guard.Stats()) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not reached within %s: %+v", what, bound, h.guard.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitReady polls /readyz until it answers 200 or the bound expires.
func (h *harness) waitReady(bound time.Duration) error {
	deadline := time.Now().Add(bound)
	for !h.ready() {
		if time.Now().After(deadline) {
			return fmt.Errorf("/readyz not 200 within %s", bound)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

func (h *harness) ready() bool {
	resp, err := http.Get(h.base + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// waitWritable proves recovery end-to-end: /readyz answers 200 and an
// actual apply commits, all within the bound.
func (h *harness) waitWritable(bound time.Duration) error {
	deadline := time.Now().Add(bound)
	for {
		if h.ready() && h.applyOnce(time.Now().UnixNano()%1000) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not writable within %s after fault", bound)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// verifyStateIdentity holds the write load off and checks the
// recovered engine's report is byte-identical to a cold rebuild over
// its own inputs.
func (h *harness) verifyStateIdentity() error {
	h.applyMu.Lock()
	defer h.applyMu.Unlock()
	eng := h.guard.Engine()
	cold, err := rpi.New(eng.Inputs())
	if err != nil {
		return fmt.Errorf("cold rebuild: %v", err)
	}
	got, err := rpi.MarshalReport(eng.Snapshot())
	if err != nil {
		return err
	}
	want, err := rpi.MarshalReport(cold.Snapshot())
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("recovered report differs from cold rebuild (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// reader hammers the read endpoints, recording admitted-read latency
// and watching for shed 503s. Allowed statuses: 200, 503 (+Retry-After),
// 499 (the server noticed our own 2s deadline first), 404 never (the
// IXP exists).
func (h *harness) reader(ctx context.Context, id int) {
	cl := &http.Client{Timeout: 3 * time.Second}
	for i := 0; ctx.Err() == nil; i++ {
		url := h.base + "/v1/infer"
		if i%2 == id%2 {
			url = h.base + "/v1/report/" + h.ixp
		}
		t0 := time.Now()
		resp, err := cl.Get(url)
		if err != nil {
			continue // client-side timeout: the deadline storm's territory
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			h.recordRead(time.Since(t0))
		case http.StatusServiceUnavailable:
			if resp.Header.Get("Retry-After") != "" {
				h.shed503.Add(1)
			}
		case serve.StatusClientClosedRequest:
			// server-side deadline: fine
		default:
			h.badStatus.CompareAndSwap(nil, fmt.Sprintf("GET %s -> %d", url, resp.StatusCode))
		}
	}
}

// streamer is a well-behaved SSE consumer that reconnects after every
// disconnect (slow-consumer cut, engine swap reset, or shed 503).
func (h *harness) streamer(ctx context.Context) {
	for ctx.Err() == nil {
		req, _ := http.NewRequestWithContext(ctx, "GET", h.base+"/v1/stream", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				if resp.Header.Get("Retry-After") != "" {
					h.shed503.Add(1)
				}
				time.Sleep(100 * time.Millisecond)
				continue
			}
			h.badStatus.CompareAndSwap(nil, fmt.Sprintf("GET /v1/stream -> %d", resp.StatusCode))
			return
		}
		// Drain events until the server ends the stream.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// stalledStreamer opens the stream and never reads a byte: the server
// must shed its updates and cut it loose, never block on it. It
// redials after each cut.
func (h *harness) stalledStreamer(ctx context.Context) {
	for ctx.Err() == nil {
		d := net.Dialer{Timeout: time.Second}
		conn, err := d.DialContext(ctx, "tcp", h.base[len("http://"):])
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetReadBuffer(2048)
		}
		fmt.Fprintf(conn, "GET /v1/stream HTTP/1.1\r\nHost: stalled\r\n\r\n")
		// Sit silent until the server gives up on us or the run ends.
		select {
		case <-ctx.Done():
		case <-connClosed(conn):
		}
		conn.Close()
	}
}

// connClosed signals when the peer closes the connection (detected by
// a blocking read — which this client otherwise never does).
func connClosed(conn net.Conn) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
			// Keep NOT consuming in spirit: read slower than the server
			// produces by sleeping between reads.
			time.Sleep(2 * time.Second)
		}
	}()
	return ch
}

// applier churns memberships through POST /v1/apply. Each applier
// alternates a forward churn delta with its inverse, so the world stays
// bounded no matter how long the run is.
func (h *harness) applier(ctx context.Context, seed int64) {
	cl := &http.Client{Timeout: 5 * time.Second}
	rng := rand.New(rand.NewSource(seed))
	for ctx.Err() == nil {
		if !h.generateAndApply(cl, rng.Int63()) {
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// postDelta sends one delta; returns whether it was committed.
// Allowed: 200, 503 (quarantine/overload), 422/400 (the delta lost a
// validation race with concurrent churn), 499.
func (h *harness) postDelta(cl *http.Client, d rpi.Delta) bool {
	body, err := marshalWireDelta(d)
	if err != nil {
		h.badStatus.CompareAndSwap(nil, fmt.Sprintf("marshal delta: %v", err))
		return false
	}
	resp, err := cl.Post(h.base+"/v1/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true
	case http.StatusServiceUnavailable:
		if resp.Header.Get("Retry-After") != "" {
			h.shed503.Add(1)
		}
	case http.StatusBadRequest, http.StatusUnprocessableEntity, serve.StatusClientClosedRequest:
	default:
		h.badStatus.CompareAndSwap(nil, fmt.Sprintf("POST /v1/apply -> %d", resp.StatusCode))
	}
	return false
}

// applyOnce builds a delta from the current engine state and posts it
// once (the fault-cycle nudge and the writability probe).
func (h *harness) applyOnce(seed int64) bool {
	cl := &http.Client{Timeout: 5 * time.Second}
	return h.generateAndApply(cl, seed)
}

// generateAndApply builds a churn delta against the current engine
// state and posts it, holding applyMu across both so no concurrent
// apply mutates the input maps mid-generation.
func (h *harness) generateAndApply(cl *http.Client, seed int64) bool {
	h.applyMu.Lock()
	defer h.applyMu.Unlock()
	eng := h.guard.Engine()
	if eng == nil {
		return false
	}
	return h.postDelta(cl, rpi.ChurnDelta(eng.Inputs(), 0.05, seed))
}

// deadlineStorm sends reads that give up after 1ms: every one of them
// exercises the cancellation path (admission queue exit or marshal
// checkpoint) without costing the engine anything.
func (h *harness) deadlineStorm(ctx context.Context) {
	cl := &http.Client{Timeout: time.Millisecond}
	for ctx.Err() == nil {
		resp, err := cl.Get(h.base + "/v1/infer")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (h *harness) recordRead(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.readLat = append(h.readLat, d)
}

func (h *harness) readCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.readLat)
}

func (h *harness) readP99() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.readLat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), h.readLat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*99/100]
}

// marshalWireDelta renders an rpi.Delta as the /v1/apply JSON body.
func marshalWireDelta(d rpi.Delta) ([]byte, error) {
	wd := serve.WireDelta{}
	for _, j := range d.Joins {
		wd.Joins = append(wd.Joins, serve.WireJoin{
			IXP: j.IXP, Iface: j.Iface.String(), ASN: uint32(j.ASN), PortMbps: j.PortMbps,
		})
	}
	for _, l := range d.Leaves {
		wd.Leaves = append(wd.Leaves, serve.WireKey{IXP: l.IXP, Iface: l.Iface.String()})
	}
	return json.Marshal(wd)
}
