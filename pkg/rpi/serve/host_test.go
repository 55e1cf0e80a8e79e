package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rpeer/internal/admission"
	"rpeer/internal/host"
	"rpeer/internal/netsim"
	"rpeer/pkg/rpi"
)

// tinyHostInputs is the tenant world factory for host tests:
// millisecond-scale worlds derived from the tenant's seed.
func tinyHostInputs(sp host.TenantSpec) (rpi.Inputs, error) {
	cfg := netsim.TinyConfig()
	if sp.Seed != 0 {
		cfg.Seed = sp.Seed
	}
	return rpi.InputsFromConfig(cfg, sp.Seed)
}

func testHost(t *testing.T, cfg Config, defaultTenant string, specs ...host.TenantSpec) (*host.Host, *HostServer, *httptest.Server) {
	t.Helper()
	quiet := log.New(io.Discard, "", 0)
	h, err := host.Open(host.Config{
		Dir:         t.TempDir(),
		Inputs:      tinyHostInputs,
		IdleTimeout: time.Hour, // sweeps only when a test forces them
		Logger:      quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	for _, sp := range specs {
		if err := h.Create(sp); err != nil {
			t.Fatal(err)
		}
	}
	if cfg.Logger == nil {
		cfg.Logger = quiet
	}
	hs := NewHost(h, defaultTenant, cfg)
	srv := httptest.NewServer(hs)
	t.Cleanup(srv.Close)
	return h, hs, srv
}

func postJSON(t *testing.T, url string, v any, wantStatus int) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d (%s)", url, resp.StatusCode, wantStatus, b)
	}
	return b
}

// TestInferReportCache: repeated reads at one publication, full and
// per-IXP, are served from one report plane (same plane, identical
// bytes); an apply (seq bump) or an engine swap (generation bump)
// invalidates it and the served bytes track the live report exactly.
func TestInferReportCache(t *testing.T) {
	h := newTenantHost(t, testInputs(t))
	g := defaultGuard(t, h)
	eng := g.Engine()
	s, srv := serveHost(t, h, Config{})
	cached := func() *publication {
		v, ok := s.bes.Load(defTenant)
		if !ok {
			t.Fatal("no backend for the default tenant")
		}
		return v.(*backend).plane.Load()
	}

	b1 := get(t, srv.URL+"/v1/infer", http.StatusOK)
	c1 := cached()
	if c1 == nil || c1.seq != 0 {
		t.Fatalf("cache after first read: %+v", c1)
	}
	b2 := get(t, srv.URL+"/v1/infer", http.StatusOK)
	if !bytes.Equal(b1, b2) {
		t.Fatal("repeated reads at one publication differ")
	}
	ixp := eng.IXPs()[0]
	sub, err := eng.ReportFor(context.Background(), ixp)
	if err != nil {
		t.Fatal(err)
	}
	wantSub, err := rpi.MarshalReport(sub)
	if err != nil {
		t.Fatal(err)
	}
	if got := get(t, srv.URL+"/v1/report/"+ixp, http.StatusOK); !bytes.Equal(got, wantSub) {
		t.Fatal("per-IXP read differs from MarshalReport of the IXP's report")
	}
	if cached() != c1 {
		t.Fatal("repeated reads rebuilt the plane instead of hitting it")
	}

	// Seq bump: the cache must follow the applied delta.
	postApply(t, srv.URL, wireChurn(rpi.ChurnDelta(eng.Inputs(), 0.005, 11)), http.StatusOK)
	b3 := get(t, srv.URL+"/v1/infer", http.StatusOK)
	want, err := rpi.MarshalReport(eng.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b3, want) {
		t.Fatal("post-apply read served stale cached bytes")
	}
	if c3 := cached(); c3.seq != 1 {
		t.Fatalf("cache seq = %d, want 1", c3.seq)
	}

	// Generation bump: swapping the engine must not serve the old world.
	in2, err := rpi.InputsFromConfig(netsim.TinyConfig(), 99)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := rpi.New(in2)
	if err != nil {
		t.Fatal(err)
	}
	g.Publish(eng2)
	b4 := get(t, srv.URL+"/v1/infer", http.StatusOK)
	want2, err := rpi.MarshalReport(eng2.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b4, want2) {
		t.Fatal("post-swap read served the previous engine's bytes")
	}
}

func TestHostTenantLifecycleHTTP(t *testing.T) {
	_, _, srv := testHost(t, Config{}, "")

	postJSON(t, srv.URL+"/v1/tenants", host.TenantSpec{Name: "a", Seed: 1}, http.StatusCreated)
	postJSON(t, srv.URL+"/v1/tenants", host.TenantSpec{Name: "a", Seed: 1}, http.StatusConflict)
	postJSON(t, srv.URL+"/v1/tenants", host.TenantSpec{Name: "no/slashes"}, http.StatusBadRequest)

	var list struct {
		Tenants []host.TenantStatus `json:"tenants"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/v1/tenants", http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Tenants) != 1 || list.Tenants[0].Name != "a" || list.Tenants[0].State != "cold" {
		t.Fatalf("tenant list: %+v", list.Tenants)
	}

	// First read opens the engine lazily; the status flips to serving.
	if b := get(t, srv.URL+"/v1/t/a/infer", http.StatusOK); !json.Valid(b) {
		t.Fatal("infer body is not JSON")
	}
	var st host.TenantStatus
	if err := json.Unmarshal(get(t, srv.URL+"/v1/tenants/a", http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "serving" || st.Opens != 1 {
		t.Fatalf("tenant status after first read: %+v", st)
	}

	get(t, srv.URL+"/v1/t/ghost/infer", http.StatusNotFound)
	get(t, srv.URL+"/v1/tenants/ghost", http.StatusNotFound)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/tenants/a?purge=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	get(t, srv.URL+"/v1/t/a/infer", http.StatusNotFound)
}

// TestHostByteIdentity is the acceptance check: a tenant served
// through the host answers /v1 report bytes identical to a bare engine
// over the same inputs and the same deltas — multi-tenancy changes
// routing, never results.
func TestHostByteIdentity(t *testing.T) {
	_, _, srv := testHost(t, Config{}, "", host.TenantSpec{Name: "a", Seed: 3})

	in, err := tinyHostInputs(host.TenantSpec{Name: "a", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	single, err := rpi.New(in)
	if err != nil {
		t.Fatal(err)
	}
	d := rpi.ChurnDelta(in, 0.02, 9)
	postJSON(t, srv.URL+"/v1/t/a/apply", wireChurn(d), http.StatusOK)
	if _, err := single.Apply(context.Background(), d); err != nil {
		t.Fatal(err)
	}

	hostBytes := get(t, srv.URL+"/v1/t/a/infer", http.StatusOK)
	singleBytes, err := rpi.MarshalReport(single.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hostBytes, singleBytes) {
		t.Fatalf("host and bare-engine reports differ (%d vs %d bytes)", len(hostBytes), len(singleBytes))
	}
	// And the cached re-read is the same bytes again.
	if !bytes.Equal(get(t, srv.URL+"/v1/t/a/infer", http.StatusOK), hostBytes) {
		t.Fatal("cached host read differs")
	}
}

// TestHostLegacyAliases: with a default tenant, the original
// single-tenant routes keep working and answer that tenant's bytes.
func TestHostLegacyAliases(t *testing.T) {
	h, _, srv := testHost(t, Config{}, "default",
		host.TenantSpec{Name: "default", Seed: 1}, host.TenantSpec{Name: "other", Seed: 2})

	legacy := get(t, srv.URL+"/v1/infer", http.StatusOK)
	routed := get(t, srv.URL+"/v1/t/default/infer", http.StatusOK)
	if !bytes.Equal(legacy, routed) {
		t.Fatal("legacy alias and tenant route disagree")
	}
	if other := get(t, srv.URL+"/v1/t/other/infer", http.StatusOK); bytes.Equal(other, legacy) {
		t.Fatal("distinct tenants served identical worlds (seeds differ)")
	}

	// Legacy apply lands on the default tenant.
	lease, err := h.Lease(context.Background(), "default")
	if err != nil {
		t.Fatal(err)
	}
	in := lease.Guard().Engine().Inputs()
	lease.Release()
	postJSON(t, srv.URL+"/v1/apply", wireChurn(rpi.ChurnDelta(in, 0.01, 4)), http.StatusOK)
	var st host.TenantStatus
	if err := json.Unmarshal(get(t, srv.URL+"/v1/tenants/default", http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.AckedSeq != 1 {
		t.Fatalf("default tenant seq = %d after legacy apply, want 1", st.AckedSeq)
	}
}

// TestHostCacheSurvivesEviction: eviction closes the engine with a
// final checkpoint; the next read reopens it under a fresh guard and
// serves the same bytes (stale cross-guard cache hits are impossible —
// backends key on the guard pointer).
func TestHostCacheSurvivesEviction(t *testing.T) {
	h, _, srv := testHost(t, Config{}, "", host.TenantSpec{Name: "a", Seed: 5})

	lease, err := h.Lease(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	in := lease.Guard().Engine().Inputs()
	lease.Release()
	postJSON(t, srv.URL+"/v1/t/a/apply", wireChurn(rpi.ChurnDelta(in, 0.02, 6)), http.StatusOK)
	before := get(t, srv.URL+"/v1/t/a/infer", http.StatusOK)

	if n := h.Sweep(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("sweep evicted %d tenants, want 1", n)
	}
	after := get(t, srv.URL+"/v1/t/a/infer", http.StatusOK)
	if !bytes.Equal(before, after) {
		t.Fatal("report bytes changed across evict + reopen")
	}
	var st host.TenantStatus
	if err := json.Unmarshal(get(t, srv.URL+"/v1/tenants/a", http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Opens != 2 || st.Evictions != 1 {
		t.Fatalf("tenant status after evict/reopen: %+v", st)
	}
}

// TestHostPerTenantAdmission: traffic through tenant routes is
// attributed per tenant, and one tenant at its fair-share cap is shed
// while a sibling still gets in.
func TestHostPerTenantAdmission(t *testing.T) {
	_, hs, srv := testHost(t, Config{
		Admission: admission.Config{
			Read:        admission.Limits{Slots: 2, Queue: 0, MaxWait: time.Millisecond},
			TenantShare: 0.5,
		},
	}, "", host.TenantSpec{Name: "hot", Seed: 1}, host.TenantSpec{Name: "cold", Seed: 2})

	// Warm both so admission, not world building, dominates.
	get(t, srv.URL+"/v1/t/hot/infer", http.StatusOK)
	get(t, srv.URL+"/v1/t/cold/infer", http.StatusOK)

	// Hold the hot tenant's entire fair share (1 of 2 slots) open with
	// a stalled... simpler: cap is 1, so one in-flight hot read blocks a
	// second. Drive it through the admission controller directly to
	// avoid timing on HTTP.
	adm := hs.Admission()
	rel, err := adm.AdmitTenant(context.Background(), admission.Read, "hot")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if _, err := adm.AdmitTenant(context.Background(), admission.Read, "hot"); err == nil {
		t.Fatal("hot tenant exceeded its fair share")
	}
	get(t, srv.URL+"/v1/t/cold/infer", http.StatusOK) // sibling headroom intact

	ts := adm.TenantStats()
	if ts["hot"]["read"].Shed == 0 {
		t.Fatalf("hot tenant shed not attributed: %+v", ts["hot"])
	}
	if ts["cold"]["read"].Admitted < 2 || ts["cold"]["read"].Shed != 0 {
		t.Fatalf("cold tenant stats: %+v", ts["cold"])
	}
}

// TestFairShareOnlyAmongSiblings: a host with one tenant admits that
// tenant on the class gates alone — a second concurrent apply queues
// for the single Write slot instead of being shed at the tenant's
// fair-share cap — and the cap comes back as soon as a sibling exists.
func TestFairShareOnlyAmongSiblings(t *testing.T) {
	h, hs, srv := testHost(t, Config{
		Admission: admission.Config{Write: admission.Limits{Slots: 1, Queue: 2, MaxWait: 10 * time.Second}},
	}, "d", host.TenantSpec{Name: "d", Seed: 3})
	get(t, srv.URL+"/v1/infer", http.StatusOK) // open the engine
	lease, err := h.Lease(context.Background(), "d")
	if err != nil {
		t.Fatal(err)
	}
	in := lease.Guard().Engine().Inputs()
	lease.Release()
	fwd := rpi.ChurnDelta(in, 0.02, 7)
	bodies := make([][]byte, 2)
	for i, d := range []rpi.Delta{fwd, rpi.InvertDelta(in, fwd)} {
		if bodies[i], err = json.Marshal(wireChurn(d)); err != nil {
			t.Fatal(err)
		}
	}
	apply := func(body []byte) <-chan int {
		status := make(chan int, 1)
		go func() {
			resp, err := http.Post(srv.URL+"/v1/apply", "application/json", bytes.NewReader(body))
			if err != nil {
				status <- -1
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		return status
	}

	// Hold the tenant's one Write slot, as an apply in flight would.
	adm := hs.Admission()
	rel, err := adm.AdmitTenant(context.Background(), admission.Write, "d")
	if err != nil {
		t.Fatal(err)
	}
	status := apply(bodies[0])
	for deadline := time.Now().Add(10 * time.Second); adm.Stats()["write"].Queued == 0; {
		select {
		case code := <-status:
			t.Fatalf("apply on a one-tenant host answered %d while the slot was held; want it queued", code)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("apply never queued")
		}
		time.Sleep(time.Millisecond)
	}
	rel()
	if code := <-status; code != http.StatusOK {
		t.Fatalf("queued apply answered %d, want 200", code)
	}

	// A sibling brings fairness back: the same held slot now puts the
	// default tenant at its cap, and the apply is shed at once.
	if err := h.Create(host.TenantSpec{Name: "sibling", Seed: 4}); err != nil {
		t.Fatal(err)
	}
	rel, err = adm.AdmitTenant(context.Background(), admission.Write, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	if code := <-apply(bodies[1]); code != http.StatusServiceUnavailable {
		t.Fatalf("apply past the fair-share cap answered %d, want 503", code)
	}
}

// TestReadyzFollowsDefaultTenant: /readyz is green only while the
// default tenant is open and serving — an idle eviction closes it and
// readiness goes back to 503 until the next request reopens it.
func TestReadyzFollowsDefaultTenant(t *testing.T) {
	h, _, srv := testHost(t, Config{}, "d", host.TenantSpec{Name: "d", Seed: 2})
	get(t, srv.URL+"/v1/infer", http.StatusOK)
	get(t, srv.URL+"/readyz", http.StatusOK)

	if n := h.Sweep(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("sweep evicted %d tenants, want 1", n)
	}
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("evicted readyz: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	get(t, srv.URL+"/v1/infer", http.StatusOK)
	get(t, srv.URL+"/readyz", http.StatusOK)
}

// TestHostStreamPinsTenant: an SSE subscriber holds its tenant's lease
// — eviction skips the tenant for as long as the stream is attached,
// and streamed updates carry applies routed through the tenant path.
func TestHostStreamPinsTenant(t *testing.T) {
	h, _, srv := testHost(t, Config{}, "", host.TenantSpec{Name: "a", Seed: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/t/a/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	readEvent := func() string {
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event: ") {
				return strings.TrimPrefix(line, "event: ")
			}
		}
		t.Fatalf("stream ended early: %v", sc.Err())
		return ""
	}
	if ev := readEvent(); ev != "hello" {
		t.Fatalf("first event %q, want hello", ev)
	}

	// The subscriber pins the tenant against eviction.
	if n := h.Sweep(time.Now().Add(2 * time.Hour)); n != 0 {
		t.Fatalf("sweep evicted %d tenants under a live stream", n)
	}

	lease, err := h.Lease(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	in := lease.Guard().Engine().Inputs()
	lease.Release()
	postJSON(t, srv.URL+"/v1/t/a/apply", wireChurn(rpi.ChurnDelta(in, 0.01, 8)), http.StatusOK)
	if ev := readEvent(); ev != "updates" {
		t.Fatalf("after apply: event %q, want updates", ev)
	}

	// Close the stream; now the idle tenant is evictable.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for h.Sweep(time.Now().Add(2*time.Hour)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tenant never became evictable after the stream closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
