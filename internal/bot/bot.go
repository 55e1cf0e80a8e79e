// Package bot is the fleet-scale load generator for the serving plane:
// it drives N tenants × many mixed workers (full-report readers, cheap
// per-IXP readers, delta appliers, SSE streamers) against a serving
// host over plain HTTP, and reports per-tenant, per-class counters and
// latency quantiles — the p50/p99-under-load numbers the SLO benchmark
// records.
//
// The bot speaks only the public wire surface (it works against an
// in-process httptest server or a remote rpi-serve), and it
// classifies every response the way an operator would: 200 admitted,
// 503 shed (admission or quarantine), 400/422 rejected (a delta that
// lost a validation race), 499/timeouts abandoned. Shedding is load
// working as designed, so it is counted, not failed.
//
// Appliers keep each tenant's world bounded no matter how long the run
// is: every forward churn delta is followed by its inverse, the same
// discipline as the chaos harness.
package bot

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
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
	// Tenants are the tenant names to drive. A single empty name drives
	// the legacy single-tenant routes instead of /v1/t/{tenant}.
	Tenants []string
	// Per-tenant worker populations.
	Readers, Appliers, Streamers int
	// Duration bounds the run (the context can end it earlier).
	Duration time.Duration
	// ChurnFrac sizes each applier delta (default 0.02 of memberships).
	ChurnFrac float64
	// Inputs returns a tenant's *current* engine inputs, used to build
	// valid churn deltas (and to pick an IXP for cheap reads). The bot
	// serializes calls per tenant. Nil starves the appliers and demotes
	// readers to full reports only.
	Inputs func(tenant string) (rpi.Inputs, error)
	// Logger receives progress lines (default log.Default()).
	Logger *log.Logger
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
	// BadStatus records the first response that violated the protocol
	// (a status outside the allowed set), empty on a clean run.
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
	case status == serve.StatusClientClosedRequest || status == 0: // 0: client-side error/timeout
		c.errs.Add(1)
	default:
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

// run carries one execution's shared state.
type run struct {
	cfg     Config
	cols    map[string]map[string]*collector // tenant -> class -> collector
	events  map[string]*atomic.Uint64        // tenant -> SSE update events
	applyMu map[string]*sync.Mutex           // tenant -> delta-generation lock
	ixp     map[string]string                // tenant -> a known IXP for cheap reads
	bad     atomic.Value                     // string: first protocol violation
}

// Run drives the configured load until Duration (or ctx) ends and
// returns the per-tenant report. Worker counts are per tenant: 4
// tenants × 8 readers is 32 reader goroutines.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("bot: no tenants configured")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.ChurnFrac <= 0 {
		cfg.ChurnFrac = 0.02
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	r := &run{
		cfg:     cfg,
		cols:    make(map[string]map[string]*collector),
		events:  make(map[string]*atomic.Uint64),
		applyMu: make(map[string]*sync.Mutex),
		ixp:     make(map[string]string),
	}
	for _, tn := range cfg.Tenants {
		r.cols[tn] = map[string]*collector{
			"read": {}, "cheap": {}, "write": {}, "stream": {},
		}
		r.events[tn] = &atomic.Uint64{}
		r.applyMu[tn] = &sync.Mutex{}
		if cfg.Inputs != nil {
			in, err := cfg.Inputs(tn)
			if err != nil {
				return nil, fmt.Errorf("bot: tenant %q inputs: %w", tn, err)
			}
			for _, name := range in.Dataset.PrefixIXP {
				r.ixp[tn] = name
				break
			}
		}
	}

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for ti, tn := range cfg.Tenants {
		for i := 0; i < cfg.Readers; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); r.reader(ctx, tn, i) }()
		}
		if cfg.Inputs != nil {
			for i := 0; i < cfg.Appliers; i++ {
				wg.Add(1)
				seed := int64(ti*1000 + i + 1)
				go func() { defer wg.Done(); r.applier(ctx, tn, seed) }()
			}
		}
		for i := 0; i < cfg.Streamers; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); r.streamer(ctx, tn) }()
		}
	}
	wg.Wait()

	rep := &Report{
		Duration:     time.Since(start),
		Tenants:      make(map[string]map[string]ClassStats, len(cfg.Tenants)),
		StreamEvents: make(map[string]uint64, len(cfg.Tenants)),
	}
	for tn, classes := range r.cols {
		out := make(map[string]ClassStats, len(classes))
		for cl, col := range classes {
			out[cl] = col.stats()
		}
		rep.Tenants[tn] = out
		rep.StreamEvents[tn] = r.events[tn].Load()
	}
	if v, ok := r.bad.Load().(string); ok {
		rep.BadStatus = v
	}
	return rep, nil
}

// path joins the tenant route prefix: /v1/t/{tenant}/suffix, or the
// legacy /v1/suffix for the empty tenant name.
func (r *run) path(tenant, suffix string) string {
	if tenant == "" {
		return r.cfg.BaseURL + "/v1/" + suffix
	}
	return r.cfg.BaseURL + "/v1/t/" + tenant + "/" + suffix
}

// violation records a status outside the protocol's allowed set.
func (r *run) violation(method, url string, status int) {
	r.bad.CompareAndSwap(nil, fmt.Sprintf("%s %s -> %d", method, url, status))
}

func allowedRead(status int) bool {
	switch status {
	case http.StatusOK, http.StatusServiceUnavailable, serve.StatusClientClosedRequest, 0:
		return true
	}
	return false
}

// reader alternates full-report and cheap per-IXP reads.
func (r *run) reader(ctx context.Context, tenant string, id int) {
	cl := &http.Client{Timeout: 5 * time.Second}
	ixp := r.ixp[tenant]
	for i := id; ctx.Err() == nil; i++ {
		class, url := "read", r.path(tenant, "infer")
		if ixp != "" && i%2 == 1 {
			class, url = "cheap", r.path(tenant, "report/"+ixp)
		}
		t0 := time.Now()
		status := 0
		resp, err := cl.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
		}
		r.cols[tenant][class].observe(status, time.Since(t0))
		if !allowedRead(status) {
			r.violation("GET", url, status)
		}
	}
}

// applier posts a churn delta, then its inverse: the tenant's world
// wanders but always returns, so a run of any length leaves the state
// equivalent to its own input set (the byte-identity check the fleet
// harness performs afterwards rides on the engine's inputs, which
// track every applied delta either way).
func (r *run) applier(ctx context.Context, tenant string, seed int64) {
	cl := &http.Client{Timeout: 10 * time.Second}
	rng := rand.New(rand.NewSource(seed))
	mu := r.applyMu[tenant]
	for ctx.Err() == nil {
		mu.Lock()
		in, err := r.cfg.Inputs(tenant)
		if err != nil {
			mu.Unlock()
			time.Sleep(50 * time.Millisecond)
			continue
		}
		d := rpi.ChurnDelta(in, r.cfg.ChurnFrac, rng.Int63())
		inv := rpi.InvertDelta(in, d)
		ok := r.postDelta(cl, tenant, d)
		if ok {
			// Only a committed forward delta needs (and can accept) its
			// inverse.
			r.postDelta(cl, tenant, inv)
		}
		mu.Unlock()
		if !ok {
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func (r *run) postDelta(cl *http.Client, tenant string, d rpi.Delta) bool {
	body, err := marshalWireDelta(d)
	if err != nil {
		r.bad.CompareAndSwap(nil, "marshal delta: "+err.Error())
		return false
	}
	url := r.path(tenant, "apply")
	t0 := time.Now()
	status := 0
	resp, err := cl.Post(url, "application/json", strings.NewReader(string(body)))
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	r.cols[tenant]["write"].observe(status, time.Since(t0))
	switch status {
	case http.StatusOK:
		return true
	case http.StatusServiceUnavailable, http.StatusBadRequest,
		http.StatusUnprocessableEntity, serve.StatusClientClosedRequest, 0:
		return false
	}
	r.violation("POST", url, status)
	return false
}

// streamer holds an SSE subscription, counting update events; the
// "stream" latency is time-to-hello (subscription establishment under
// load). A dropped stream (reset, server close, shed) reconnects.
func (r *run) streamer(ctx context.Context, tenant string) {
	for ctx.Err() == nil {
		r.streamOnce(ctx, tenant)
	}
}

func (r *run) streamOnce(ctx context.Context, tenant string) {
	url := r.path(tenant, "stream")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return
	}
	t0 := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		r.cols[tenant]["stream"].observe(0, time.Since(t0))
		sleepCtx(ctx, 20*time.Millisecond)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.cols[tenant]["stream"].observe(resp.StatusCode, time.Since(t0))
		if !allowedRead(resp.StatusCode) {
			r.violation("GET", url, resp.StatusCode)
		}
		sleepCtx(ctx, 50*time.Millisecond) // shed: back off before resubscribing
		return
	}
	sc := bufio.NewScanner(resp.Body)
	hello := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: hello":
			r.cols[tenant]["stream"].observe(http.StatusOK, time.Since(t0))
			hello = true
		case line == "event: updates":
			r.events[tenant].Add(1)
		case line == "event: reset":
			return // engine swapped: resynchronize by resubscribing
		}
	}
	if !hello {
		r.cols[tenant]["stream"].observe(0, time.Since(t0))
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
