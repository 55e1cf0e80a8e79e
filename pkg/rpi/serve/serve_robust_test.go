package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpeer/internal/admission"
	"rpeer/internal/host"
	"rpeer/internal/netsim"
	"rpeer/internal/supervisor"
	"rpeer/internal/wal"
	"rpeer/pkg/rpi"
)

var quiet = log.New(io.Discard, "", 0)

// lockedBuffer is a log sink a test reads while handlers write it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

var (
	tinyOnce sync.Once
	tinyIn   rpi.Inputs
	tinyErr  error
)

// tinyInputs is the small world the robustness tests run on: engine
// lifecycles in milliseconds instead of seconds.
func tinyInputs(t testing.TB) rpi.Inputs {
	t.Helper()
	tinyOnce.Do(func() {
		tinyIn, tinyErr = rpi.InputsFromConfig(netsim.TinyConfig(), 21)
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyIn
}

// supervisedServer is a self-healing serving plane over a fault-
// injectable persistent engine: the full production wiring, in-process.
type supervisedServer struct {
	fsys  *wal.MemFS
	host  *host.Host
	g     *supervisor.Guard
	s     *HostServer
	srv   *httptest.Server
	armed atomic.Bool
	// hold makes the armed fault crash the disk too, so every re-Open
	// fails and the tenant stays quarantined until fsys.PowerFail.
	hold atomic.Bool
}

func newSupervisedServer(t *testing.T, cfg Config) *supervisedServer {
	t.Helper()
	h := &supervisedServer{fsys: wal.NewMemFS()}
	h.host = newTenantHost(t, tinyInputs(t),
		rpi.WithWALFS(h.fsys),
		rpi.WithSnapshotEvery(0),
		rpi.WithLogger(quiet),
		rpi.WithApplyHook(func(uint64, rpi.Delta) {
			if h.armed.CompareAndSwap(true, false) {
				if h.hold.Load() {
					h.fsys.InjectAt(1, wal.Fault{Mode: wal.FaultCrash})
				}
				panic("serve_test: injected engine fault")
			}
		}),
	)
	h.g = defaultGuard(t, h.host)
	h.s, h.srv = serveHost(t, h.host, cfg)
	return h
}

func (h *supervisedServer) applyHTTP(t *testing.T, d rpi.Delta) *http.Response {
	t.Helper()
	body, err := marshalWire(d)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.srv.URL+"/v1/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func marshalWire(d rpi.Delta) ([]byte, error) {
	return json.Marshal(wireChurn(d))
}

// TestApplyBodyLimits: an oversized (>16MB) body and a body with
// unknown fields are both the client's fault — 400, never 500 — and
// every /v1 response carries Cache-Control: no-store.
func TestApplyBodyLimits(t *testing.T) {
	_, srv := testServer(t)

	// 17MB of valid JSON structure: the limit, not the parser, rejects it.
	big := `{"joins":[` + strings.Repeat(`{"ixp":"pad","iface":"203.0.113.1","asn":1},`, 400_000)
	big += `{"ixp":"pad","iface":"203.0.113.1","asn":1}]}`
	if len(big) <= 16<<20 {
		t.Fatalf("test body too small: %d", len(big))
	}
	resp, err := http.Post(srv.URL+"/v1/apply", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/apply", "application/json",
		strings.NewReader(`{"joins":[],"bogus_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field body: status %d, want 400", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}
}

// TestQuarantineOverHTTP drives the full fault lifecycle through the
// HTTP surface: a poisoned apply 503s and quarantines the engine,
// reads keep answering from the last good publication's plane (full
// and per-IXP, with 404 for an unknown IXP and 499 for a caller gone
// before the plane build), concurrent applies racing the quarantine
// and the re-publication get clean 503s (never a 500 or a hung
// connection), and once the supervisor re-Opens from the WAL the plane
// is writable again and /v1/infer serves exactly the recovered
// engine's report.
func TestQuarantineOverHTTP(t *testing.T) {
	h := newSupervisedServer(t, Config{})
	eng := h.g.Engine()
	d1 := rpi.ChurnDelta(eng.Inputs(), 0.05, 1)
	if resp := h.applyHTTP(t, d1); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy apply: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	goodInfer := get(t, h.srv.URL+"/v1/infer", http.StatusOK)
	goodRep := eng.Snapshot()

	// Poison the next apply: it journals, panics inside the engine, and
	// must come back as a clean 503 with the guard quarantined. The
	// fault also crashes the disk, so recovery cannot win the race with
	// the quarantined reads below.
	h.hold.Store(true)
	h.armed.Store(true)
	resp := h.applyHTTP(t, rpi.ChurnDelta(h.g.Engine().Inputs(), 0.05, 2))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("poisoned apply: status %d, want 503", resp.StatusCode)
	}
	if !h.g.Quarantined() {
		t.Fatal("guard not quarantined after the poisoned apply")
	}

	// Quarantined reads: the last good publication, full and per IXP.
	resp, err := http.Get(h.srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("quarantined readyz: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if got := get(t, h.srv.URL+"/v1/infer", http.StatusOK); !bytes.Equal(got, goodInfer) {
		t.Fatal("quarantined infer differs from the last good bytes")
	}
	ixp := eng.IXPs()[0]
	sub, err := rpi.FilterIXP(context.Background(), goodRep, ixp)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rpi.MarshalReport(sub)
	if got := get(t, h.srv.URL+"/v1/report/"+ixp, http.StatusOK); !bytes.Equal(got, want) {
		t.Fatalf("quarantined report of %q differs from the last good bytes", ixp)
	}
	get(t, h.srv.URL+"/v1/report/no-such-ixp", http.StatusNotFound)
	// A caller already gone before the plane build (a fresh front end
	// has none cached) is logged and answered 499.
	var logged lockedBuffer
	_, late := serveHost(t, h.host, Config{RequestTimeout: time.Nanosecond, Logger: log.New(&logged, "", 0)})
	resp, err = http.Get(late.URL + "/v1/report/" + ixp)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != StatusClientClosedRequest || !strings.Contains(logged.String(), "abandoned") {
		t.Fatalf("quarantined report for a gone caller: status %d, log %q; want %d and an abandoned line",
			resp.StatusCode, logged.String(), StatusClientClosedRequest)
	}
	h.fsys.PowerFail(0) // let the next re-Open succeed

	// Race applies against the quarantine and the re-publication: every
	// response must be a clean status (never a 500, never a hang).
	var wg sync.WaitGroup
	statuses := make(chan int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := h.applyHTTP(t, rpi.ChurnDelta(tinyInputs(t), 0.05, int64(10+i)))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}(i)
	}
	wg.Wait()
	close(statuses)
	for st := range statuses {
		switch st {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusServiceUnavailable:
		default:
			t.Fatalf("racing apply: unexpected status %d", st)
		}
	}

	// Recovery: the guard re-Opens in the background; the plane must be
	// writable again within the bound.
	deadline := time.Now().Add(10 * time.Second)
	for h.g.Engine() == nil || h.g.Quarantined() {
		if time.Now().After(deadline) {
			t.Fatalf("not writable 10s after fault: %+v", h.g.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := h.g.Stats(); st.ContinuityViolations != 0 {
		t.Fatalf("continuity violations: %+v", st)
	}
	resp = h.applyHTTP(t, rpi.ChurnDelta(h.g.Engine().Inputs(), 0.05, 99))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery apply: %d", resp.StatusCode)
	}
	want, _ = rpi.MarshalReport(h.g.Engine().Snapshot())
	if got := get(t, h.srv.URL+"/v1/infer", http.StatusOK); !bytes.Equal(got, want) {
		t.Fatal("post-recovery /v1/infer differs from engine snapshot")
	}
	if h.s.HandlerPanics() != 0 {
		t.Fatalf("engine fault leaked into handler panic counter: %d", h.s.HandlerPanics())
	}
}

// TestStreamDeliversUpdates: a well-behaved SSE consumer gets a hello
// and then coalesced update batches as deltas land.
func TestStreamDeliversUpdates(t *testing.T) {
	h := newTenantHost(t, tinyInputs(t))
	eng := defaultGuard(t, h).Engine()
	_, srv := serveHost(t, h, Config{})

	resp, err := http.Get(srv.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				events <- strings.TrimPrefix(line, "event: ")
			}
		}
		close(events)
	}()
	waitEvent := func(want string) {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok || ev != want {
				t.Fatalf("event = %q (ok=%v), want %q", ev, ok, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no %q event within 10s", want)
		}
	}
	waitEvent("hello")
	if _, err := eng.Apply(context.Background(), rpi.ChurnDelta(eng.Inputs(), 0.05, 7)); err != nil {
		t.Fatal(err)
	}
	waitEvent("updates")
}

// TestStalledStreamConsumer: a subscriber that never reads must not
// wedge the serving plane. The engine sheds its oldest pending updates
// (rpi.dropped_updates counts them), the write deadline disconnects
// the dead stream, and the server keeps answering other traffic.
func TestStalledStreamConsumer(t *testing.T) {
	h := newTenantHost(t, tinyInputs(t))
	eng := defaultGuard(t, h).Engine()
	srv := httptest.NewUnstartedServer(NewHost(h, defTenant, Config{
		StreamBuffer:       1,
		StreamWriteTimeout: 300 * time.Millisecond,
		Logger:             quiet,
	}))
	// Shrink the server-side socket buffer so a non-reading client
	// exerts backpressure after a few KB instead of a few hundred.
	srv.Config.ConnContext = func(ctx context.Context, c net.Conn) context.Context {
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetWriteBuffer(2048)
		}
		return ctx
	}
	srv.Start()
	t.Cleanup(srv.Close)

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(2048)
	}
	fmt.Fprintf(conn, "GET /v1/stream HTTP/1.1\r\nHost: stalled\r\nAccept: text/event-stream\r\n\r\n")
	// The client now goes silent: it never reads a byte of the response.

	// Churn deltas back and forth until the engine visibly sheds.
	fwd := rpi.ChurnDelta(eng.Inputs(), 0.3, 31)
	rev := rpi.InvertDelta(eng.Inputs(), fwd)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; eng.DroppedUpdates() == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("engine never shed for the stalled consumer (%d applies)", i)
		}
		d := fwd
		if i%2 == 1 {
			d = rev
		}
		if _, err := eng.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	if eng.DroppedUpdates() == 0 {
		t.Fatal("no updates dropped")
	}
	// The plane is still live for everyone else.
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("server wedged by stalled stream: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during stall: %d", resp.StatusCode)
	}
}

// TestRequestTimeoutMapsTo499: a request whose deadline expires before
// the response is built is logged and answered with the 499 convention,
// not a fake 500.
func TestRequestTimeoutMapsTo499(t *testing.T) {
	h := newTenantHost(t, tinyInputs(t))
	defaultGuard(t, h) // open first: the deadline must expire in the read, not the open
	_, srv := serveHost(t, h, Config{RequestTimeout: time.Nanosecond})

	resp, err := http.Get(srv.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != StatusClientClosedRequest {
		t.Fatalf("expired request: status %d, want %d", resp.StatusCode, StatusClientClosedRequest)
	}
}

// TestStreamSheds503: the stream class has no queue — once its slots
// are taken, the next subscriber gets an immediate 503 + Retry-After.
func TestStreamSheds503(t *testing.T) {
	s, srv := serveHost(t, newTenantHost(t, tinyInputs(t)), Config{
		Admission: admission.Config{Stream: admission.Limits{Slots: 1}},
	})

	first, err := http.Get(srv.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { first.Body.Close() })
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first stream: %d", first.StatusCode)
	}
	// Read the hello so the handler is parked in its select (slot held).
	buf := make([]byte, 1)
	if _, err := first.Body.Read(buf); err != nil {
		t.Fatal(err)
	}

	second, err := http.Get(srv.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, second.Body)
	second.Body.Close()
	if second.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second stream: status %d, want 503", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Fatal("shed stream response missing Retry-After")
	}
	if s.Admission().TotalShed() == 0 {
		t.Fatal("shed counter did not move")
	}
}

// TestReadsDoNotWaitForApply holds an Apply inside the engine's write
// lock (the apply hook blocks) and reads meanwhile: SnapshotSeq,
// GET /v1/infer and GET /v1/report/{ixp} must all return the previous
// publication without waiting. Once the apply is released, a
// subscriber that has received its update reads a seq at least as high.
func TestReadsDoNotWaitForApply(t *testing.T) {
	var hold atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	h := newTenantHost(t, tinyInputs(t), rpi.WithApplyHook(func(uint64, rpi.Delta) {
		if hold.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}))
	g := defaultGuard(t, h)
	_, srv := serveHost(t, h, Config{})
	eng := g.Engine()
	prev, prevSeq := eng.SnapshotSeq()
	ixp := eng.IXPs()[0]
	wantFull, _ := rpi.MarshalReport(prev)
	sub, err := rpi.FilterIXP(context.Background(), prev, ixp)
	if err != nil {
		t.Fatal(err)
	}
	wantIXP, _ := rpi.MarshalReport(sub)
	updates, cancel := eng.Subscribe(4)
	defer cancel()

	hold.Store(true)
	applied := make(chan error, 1)
	go func() {
		_, err := g.Apply(context.Background(), rpi.ChurnDelta(eng.Inputs(), 0.05, 3))
		applied <- err
	}()
	<-entered

	reads := make(chan error, 1)
	go func() {
		reads <- func() error {
			if rep, seq := eng.SnapshotSeq(); rep != prev || seq != prevSeq {
				return fmt.Errorf("SnapshotSeq during apply = seq %d, want the previous publication (seq %d)", seq, prevSeq)
			}
			for _, c := range []struct {
				path string
				want []byte
			}{{"/v1/infer", wantFull}, {"/v1/report/" + ixp, wantIXP}} {
				resp, err := http.Get(srv.URL + c.path)
				if err != nil {
					return err
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					return err
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, c.want) {
					return fmt.Errorf("GET %s during apply: status %d, not the previous publication's bytes", c.path, resp.StatusCode)
				}
			}
			return nil
		}()
	}()
	select {
	case err := <-reads:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reads waited on the held apply")
	}

	unblock()
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	up := <-updates
	if _, seq := eng.SnapshotSeq(); seq < up.Seq {
		t.Fatalf("subscriber got update %d, then read seq %d", up.Seq, seq)
	}
	want, _ := rpi.MarshalReport(eng.Snapshot())
	if got := get(t, srv.URL+"/v1/infer", http.StatusOK); !bytes.Equal(got, want) || up.Seq != prevSeq+1 {
		t.Fatalf("after the apply (update seq %d): /v1/infer is not the new publication", up.Seq)
	}
}
