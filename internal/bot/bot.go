// Package bot is the load harness for the serving plane: it drives N
// tenants × many mixed workers (full-report readers, cheap per-IXP
// readers, delta appliers, SSE streamers, and optionally hostile
// clients) against a serving host over plain HTTP, and reports
// per-tenant, per-class counters and latency quantiles — the
// p50/p99-under-load numbers the SLO benchmark records.
//
// The bot speaks only the public wire surface (it works against an
// in-process server or a remote rpi-serve), and it classifies every
// response the way an operator would: 200 admitted, 503 shed
// (admission or quarantine), 400/422 rejected (a delta that lost a
// validation race), 499/timeouts abandoned. Shedding is load working
// as designed, so it is counted, not failed; a status outside the
// allowed set, or a 503 without Retry-After, is a protocol violation.
//
// Appliers keep each tenant's world bounded no matter how long the run
// is: every forward churn delta is followed by its inverse, both under
// the tenant's apply lock, which Pause lends to a caller that needs
// the tenant's state to hold still.
package bot

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpeer/pkg/rpi"
	"rpeer/pkg/rpi/serve"
)

// Config tunes one load run.
type Config struct {
	// BaseURL is the serving host ("http://127.0.0.1:8090").
	BaseURL string
	// Tenants are the tenant names to drive, via /v1/t/{tenant}.
	Tenants []string
	// Per-tenant worker populations.
	Readers, Appliers, Streamers int
	// Hostile adds, per tenant, one streamer that stalls on a tiny
	// receive buffer (the server must cut it loose, never block on it)
	// and one deadline storm of full-report reads that give up after
	// 1 ms (the server's cancellation path).
	Hostile bool
	// Duration bounds the run; zero runs until the context ends.
	Duration time.Duration
	// ChurnFrac sizes each applier delta (default 0.02 of memberships).
	ChurnFrac float64
	// Inputs returns a tenant's *current* engine inputs, used to build
	// valid churn deltas (and to pick an IXP for cheap reads). The bot
	// calls it under the tenant's apply lock. Nil starves the appliers
	// and demotes readers to full reports only.
	Inputs func(tenant string) (rpi.Inputs, error)
}

// ClassStats is one (tenant, class) outcome: counters plus latency
// quantiles over admitted requests.
type ClassStats struct {
	Requests uint64  `json:"requests"`
	Admitted uint64  `json:"admitted"`
	Shed     uint64  `json:"shed"`
	Rejected uint64  `json:"rejected,omitempty"`
	Errors   uint64  `json:"errors,omitempty"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
}

// ShedPct is the fraction of requests shed, in percent.
func (c ClassStats) ShedPct() float64 {
	if c.Requests == 0 {
		return 0
	}
	return 100 * float64(c.Shed) / float64(c.Requests)
}

// Report is one run's outcome: per tenant, per class.
type Report struct {
	Duration time.Duration                    `json:"duration_ns"`
	Tenants  map[string]map[string]ClassStats `json:"tenants"`
	// StreamEvents counts SSE update events received across all
	// streams, per tenant.
	StreamEvents map[string]uint64 `json:"stream_events,omitempty"`
	// BadStatus records the first protocol violation, empty on a clean
	// run.
	BadStatus string `json:"bad_status,omitempty"`
}

// collector accumulates one (tenant, class).
type collector struct {
	requests, admitted, shed, rejected, errs atomic.Uint64
	hist                                     hist
}

func (c *collector) observe(status int, d time.Duration) {
	c.requests.Add(1)
	switch {
	case status >= 200 && status < 300:
		c.admitted.Add(1)
		c.hist.observe(d)
	case status == http.StatusServiceUnavailable:
		c.shed.Add(1)
	case status == http.StatusBadRequest || status == http.StatusUnprocessableEntity:
		c.rejected.Add(1)
	default: // 499, 0 (client-side error or timeout), anything else
		c.errs.Add(1)
	}
}

func (c *collector) stats() ClassStats {
	return ClassStats{
		Requests: c.requests.Load(),
		Admitted: c.admitted.Load(),
		Shed:     c.shed.Load(),
		Rejected: c.rejected.Load(),
		Errors:   c.errs.Load(),
		P50Ms:    c.hist.quantileMs(0.50),
		P99Ms:    c.hist.quantileMs(0.99),
		MeanMs:   c.hist.meanMs(),
	}
}

// hist collects latency samples with bounded memory: past the cap it
// decimates (keeps every other sample, doubles the sampling stride),
// which preserves the distribution's shape for quantile estimation.
type hist struct {
	mu      sync.Mutex
	samples []time.Duration
	stride  int
	skip    int
}

const histCap = 1 << 16

func (h *hist) observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stride == 0 {
		h.stride = 1
	}
	h.skip++
	if h.skip < h.stride {
		return
	}
	h.skip = 0
	h.samples = append(h.samples, d)
	if len(h.samples) >= histCap {
		keep := h.samples[:0]
		for i := 0; i < len(h.samples); i += 2 {
			keep = append(keep, h.samples[i])
		}
		h.samples = keep
		h.stride *= 2
	}
}

func (h *hist) quantileMs(q float64) float64 {
	h.mu.Lock()
	sorted := append([]time.Duration(nil), h.samples...)
	h.mu.Unlock()
	if len(sorted) == 0 {
		return 0
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

func (h *hist) meanMs() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range h.samples {
		sum += d
	}
	return float64(sum) / float64(len(h.samples)) / float64(time.Millisecond)
}

// Load is one running load, from Start until Wait returns.
type Load struct {
	cfg     Config
	cols    map[string]map[string]*collector // tenant -> class -> collector
	events  map[string]*atomic.Uint64        // tenant -> SSE update events
	applyMu map[string]*sync.Mutex           // tenant -> apply lock
	ixp     map[string]string                // tenant -> a known IXP for cheap reads
	bad     atomic.Value                     // string: first protocol violation
	writeCl *http.Client

	start  time.Time
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Start launches the configured workers and returns at once; they run
// until Duration (or ctx) ends. Worker counts are per tenant: 4
// tenants × 8 readers is 32 reader goroutines.
func Start(ctx context.Context, cfg Config) (*Load, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("bot: no tenants configured")
	}
	if cfg.ChurnFrac <= 0 {
		cfg.ChurnFrac = 0.02
	}
	l := &Load{
		cfg:     cfg,
		cols:    make(map[string]map[string]*collector),
		events:  make(map[string]*atomic.Uint64),
		applyMu: make(map[string]*sync.Mutex),
		ixp:     make(map[string]string),
		writeCl: &http.Client{Timeout: 10 * time.Second},
	}
	for _, tn := range cfg.Tenants {
		l.cols[tn] = map[string]*collector{
			"read": {}, "cheap": {}, "write": {}, "stream": {},
		}
		l.events[tn] = &atomic.Uint64{}
		l.applyMu[tn] = &sync.Mutex{}
		if cfg.Inputs != nil {
			in, err := cfg.Inputs(tn)
			if err != nil {
				return nil, fmt.Errorf("bot: tenant %q inputs: %w", tn, err)
			}
			for _, name := range in.Dataset.PrefixIXP {
				l.ixp[tn] = name
				break
			}
		}
	}

	if cfg.Duration > 0 {
		ctx, l.cancel = context.WithTimeout(ctx, cfg.Duration)
	} else {
		ctx, l.cancel = context.WithCancel(ctx)
	}
	l.start = time.Now()
	spawn := func(n int, f func(i int)) {
		for i := 0; i < n; i++ {
			l.wg.Add(1)
			go func() { defer l.wg.Done(); f(i) }()
		}
	}
	for ti, tn := range cfg.Tenants {
		spawn(cfg.Readers, func(i int) { l.reader(ctx, tn, i) })
		if cfg.Inputs != nil {
			spawn(cfg.Appliers, func(i int) { l.applier(ctx, tn, int64(ti*1000+i+1)) })
		}
		spawn(cfg.Streamers, func(int) { l.streamer(ctx, tn) })
		if cfg.Hostile {
			spawn(1, func(int) { l.stalledStreamer(ctx, tn) })
			spawn(1, func(int) { l.deadlineStorm(ctx, tn) })
		}
	}
	return l, nil
}

// Wait blocks until the run ends (Duration elapsed or the context
// passed to Start ended) and returns the per-tenant report.
func (l *Load) Wait() *Report {
	l.wg.Wait()
	l.cancel()
	rep := &Report{
		Duration:     time.Since(l.start),
		Tenants:      make(map[string]map[string]ClassStats, len(l.cols)),
		StreamEvents: make(map[string]uint64, len(l.cols)),
	}
	for tn, classes := range l.cols {
		out := make(map[string]ClassStats, len(classes))
		for cl, col := range classes {
			out[cl] = col.stats()
		}
		rep.Tenants[tn] = out
		rep.StreamEvents[tn] = l.events[tn].Load()
	}
	if v, ok := l.bad.Load().(string); ok {
		rep.BadStatus = v
	}
	return rep
}

// Pause takes tenant's apply lock — the one every forward+inverse pair
// runs under — and returns the call that releases it. In between, no
// delta for tenant is being generated or is in flight, so the tenant's
// state holds still while reads continue.
func (l *Load) Pause(tenant string) (resume func()) {
	mu := l.applyMu[tenant]
	mu.Lock()
	return mu.Unlock
}

// Apply posts one churn delta built from tenant's current inputs and,
// if it committed, its inverse, holding the tenant's apply lock across
// the pair (the inputs are live engine state that a concurrent apply
// would mutate mid-generation). It reports whether the forward delta
// committed. It needs Config.Inputs.
func (l *Load) Apply(tenant string, seed int64) bool {
	resume := l.Pause(tenant)
	defer resume()
	in, err := l.cfg.Inputs(tenant)
	if err != nil {
		return false
	}
	d := rpi.ChurnDelta(in, l.cfg.ChurnFrac, seed)
	inv := rpi.InvertDelta(in, d)
	if !l.postDelta(tenant, d) {
		return false
	}
	// Only a committed forward delta needs (and can accept) its inverse.
	l.postDelta(tenant, inv)
	return true
}

// url is the tenant route /v1/t/{tenant}/suffix.
func (l *Load) url(tenant, suffix string) string {
	return l.cfg.BaseURL + "/v1/t/" + tenant + "/" + suffix
}

// check records the first protocol violation: a status outside the
// allowed set, or a 503 that does not tell the client when to retry.
func (l *Load) check(method, url string, status int, hdr http.Header, allowed bool) {
	switch {
	case !allowed:
		l.bad.CompareAndSwap(nil, fmt.Sprintf("%s %s -> %d", method, url, status))
	case status == http.StatusServiceUnavailable && hdr.Get("Retry-After") == "":
		l.bad.CompareAndSwap(nil, fmt.Sprintf("%s %s -> 503 without Retry-After", method, url))
	}
}

// send performs one request, drains the body, checks the answer
// against the protocol and returns its status (0 on a client-side
// error or timeout).
func (l *Load) send(cl *http.Client, req *http.Request, allowed func(int) bool) int {
	resp, err := cl.Do(req)
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	l.check(req.Method, req.URL.String(), resp.StatusCode, resp.Header, allowed(resp.StatusCode))
	return resp.StatusCode
}

func allowedRead(status int) bool {
	switch status {
	case http.StatusOK, http.StatusServiceUnavailable, serve.StatusClientClosedRequest:
		return true
	}
	return false
}

func allowedWrite(status int) bool {
	return allowedRead(status) || status == http.StatusBadRequest || status == http.StatusUnprocessableEntity
}

// reader alternates full-report and cheap per-IXP reads.
func (l *Load) reader(ctx context.Context, tenant string, id int) {
	cl := &http.Client{Timeout: 5 * time.Second}
	ixp := l.ixp[tenant]
	for i := id; ctx.Err() == nil; i++ {
		class, url := "read", l.url(tenant, "infer")
		if ixp != "" && i%2 == 1 {
			class, url = "cheap", l.url(tenant, "report/"+ixp)
		}
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		t0 := time.Now()
		status := l.send(cl, req, allowedRead)
		l.cols[tenant][class].observe(status, time.Since(t0))
	}
}

// applier churns tenant's world one forward+inverse pair at a time:
// the world wanders but always returns, so a run of any length leaves
// the state equivalent to its own input set.
func (l *Load) applier(ctx context.Context, tenant string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for ctx.Err() == nil {
		if !l.Apply(tenant, rng.Int63()) {
			sleepCtx(ctx, 10*time.Millisecond)
		}
	}
}

func (l *Load) postDelta(tenant string, d rpi.Delta) bool {
	body, err := marshalWireDelta(d)
	if err != nil {
		l.bad.CompareAndSwap(nil, "marshal delta: "+err.Error())
		return false
	}
	req, _ := http.NewRequest(http.MethodPost, l.url(tenant, "apply"), bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	status := l.send(l.writeCl, req, allowedWrite)
	l.cols[tenant]["write"].observe(status, time.Since(t0))
	return status == http.StatusOK
}

// streamer holds an SSE subscription, counting update events; the
// "stream" latency is time-to-hello (subscription establishment under
// load). A dropped stream (reset, server close, shed) reconnects.
func (l *Load) streamer(ctx context.Context, tenant string) {
	for ctx.Err() == nil {
		l.streamOnce(ctx, tenant)
	}
}

func (l *Load) streamOnce(ctx context.Context, tenant string) {
	url := l.url(tenant, "stream")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return
	}
	t0 := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		l.cols[tenant]["stream"].observe(0, time.Since(t0))
		sleepCtx(ctx, 20*time.Millisecond)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		l.cols[tenant]["stream"].observe(resp.StatusCode, time.Since(t0))
		l.check(http.MethodGet, url, resp.StatusCode, resp.Header, allowedRead(resp.StatusCode))
		sleepCtx(ctx, 50*time.Millisecond) // shed: back off before resubscribing
		return
	}
	sc := bufio.NewScanner(resp.Body)
	hello := false
	for sc.Scan() {
		switch sc.Text() {
		case "event: hello":
			l.cols[tenant]["stream"].observe(http.StatusOK, time.Since(t0))
			hello = true
		case "event: updates":
			l.events[tenant].Add(1)
		case "event: reset":
			return // engine swapped: resynchronize by resubscribing
		}
	}
	if !hello {
		l.cols[tenant]["stream"].observe(0, time.Since(t0))
	}
}

// stalledStreamer subscribes over a raw connection with a tiny receive
// buffer and then reads far slower than the server writes. It redials
// after each cut.
func (l *Load) stalledStreamer(ctx context.Context, tenant string) {
	addr := strings.TrimPrefix(l.cfg.BaseURL, "http://")
	for ctx.Err() == nil {
		d := net.Dialer{Timeout: time.Second}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			sleepCtx(ctx, 100*time.Millisecond)
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetReadBuffer(2048)
		}
		fmt.Fprintf(conn, "GET /v1/t/%s/stream HTTP/1.1\r\nHost: stalled\r\n\r\n", tenant)
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			buf := make([]byte, 4096)
			for ctx.Err() == nil {
				if _, err := conn.Read(buf); err != nil {
					return // the server cut us loose
				}
				sleepCtx(ctx, 2*time.Second)
			}
		}()
		select {
		case <-ctx.Done():
		case <-closed:
		}
		conn.Close() // unblocks a pending Read
		<-closed
	}
}

// deadlineStorm sends full-report reads that give up after 1 ms: each
// one exercises the admission queue exit or the plane build checkpoint
// without costing the engine anything. Its outcomes are not counted,
// but an answer that does arrive must still obey the protocol.
func (l *Load) deadlineStorm(ctx context.Context, tenant string) {
	cl := &http.Client{Timeout: time.Millisecond}
	for ctx.Err() == nil {
		req, _ := http.NewRequest(http.MethodGet, l.url(tenant, "infer"), nil)
		l.send(cl, req, allowedRead)
		sleepCtx(ctx, 5*time.Millisecond)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// marshalWireDelta renders an rpi.Delta as the /v1/apply JSON body
// (joins and leaves; bot churn carries no RTT overrides).
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
