package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rpeer/internal/host"
	"rpeer/internal/supervisor"
	"rpeer/pkg/rpi"
)

var (
	fixOnce sync.Once
	fixIn   rpi.Inputs
	fixErr  error
)

func testInputs(t testing.TB) rpi.Inputs {
	t.Helper()
	fixOnce.Do(func() {
		fixIn, fixErr = rpi.SyntheticInputs(1, 1)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixIn
}

// defTenant is the tenant the short /v1 routes alias to in these tests.
const defTenant = "default"

// newTenantHost builds an in-memory host holding one tenant, defTenant,
// whose world is in. opts reach every rpi.Open of the tenant.
func newTenantHost(t testing.TB, in rpi.Inputs, opts ...rpi.Option) *host.Host {
	t.Helper()
	h, err := host.Open(host.Config{
		Inputs:  func(host.TenantSpec) (rpi.Inputs, error) { return in, nil },
		Options: opts,
		Logger:  quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	if err := h.Create(host.TenantSpec{Name: defTenant}); err != nil {
		t.Fatal(err)
	}
	return h
}

// defaultGuard leases the default tenant (opening its engine on first
// touch) and returns its guard. The host never evicts, so the guard
// outlives the lease.
func defaultGuard(t testing.TB, h *host.Host) *supervisor.Guard {
	t.Helper()
	lease, err := h.Lease(context.Background(), defTenant)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	return lease.Guard()
}

// serveHost fronts h with defTenant as the default tenant.
func serveHost(t testing.TB, h *host.Host, cfg Config) (*HostServer, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quiet
	}
	s := NewHost(h, defTenant, cfg)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

// testServer serves the paper-sized world as a one-tenant host, with
// the admission config rpi-serve ships, and returns the tenant's
// engine.
func testServer(t testing.TB) (*rpi.Engine, *httptest.Server) {
	t.Helper()
	h := newTenantHost(t, testInputs(t))
	_, srv := serveHost(t, h, Config{})
	return defaultGuard(t, h).Engine(), srv
}

func get(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (%s)", url, resp.StatusCode, wantStatus, b)
	}
	return b
}

// TestReadinessGating: a host whose default tenant has not opened yet
// is alive but not ready — /readyz answers 503 + Retry-After until the
// first lease builds the engine, 200 with the tenant's seq after. A /v1
// request arriving meanwhile waits for the open instead of failing.
func TestReadinessGating(t *testing.T) {
	h := newTenantHost(t, tinyInputs(t))
	_, srv := serveHost(t, h, Config{})

	var health struct {
		OK      bool `json:"ok"`
		Tenants int  `json:"tenants"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/healthz", http.StatusOK), &health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Tenants != 1 {
		t.Fatalf("pending healthz = %+v", health)
	}
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("unopened readyz: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// The first request opens the default tenant lazily.
	get(t, srv.URL+"/v1/infer", http.StatusOK)
	var ready struct {
		Ready bool   `json:"ready"`
		Seq   uint64 `json:"seq"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/readyz", http.StatusOK), &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || ready.Seq != 0 {
		t.Fatalf("readyz = %+v", ready)
	}

	// Without a default tenant, readiness waits for no engine.
	bare := httptest.NewServer(NewHost(newTenantHost(t, tinyInputs(t)), "", Config{Logger: quiet}))
	t.Cleanup(bare.Close)
	get(t, bare.URL+"/readyz", http.StatusOK)
}

func TestHealthz(t *testing.T) {
	_, srv := testServer(t)
	var body struct {
		OK      bool `json:"ok"`
		Tenants int  `json:"tenants"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/healthz", http.StatusOK), &body); err != nil {
		t.Fatal(err)
	}
	if !body.OK || body.Tenants != 1 {
		t.Fatalf("healthz = %+v", body)
	}
}

func TestInferServesWireReport(t *testing.T) {
	eng, srv := testServer(t)
	b := get(t, srv.URL+"/v1/infer", http.StatusOK)
	w, err := rpi.UnmarshalReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if w.Summary.Total != len(eng.Snapshot().Inferences) {
		t.Fatalf("served %d memberships, engine has %d", w.Summary.Total, len(eng.Snapshot().Inferences))
	}
	want, _ := rpi.MarshalReport(eng.Snapshot())
	if !bytes.Equal(b, want) {
		t.Fatal("served bytes differ from MarshalReport")
	}
}

func TestReportPerIXP(t *testing.T) {
	eng, srv := testServer(t)
	var ixp string
	for k := range eng.Snapshot().Inferences {
		ixp = k.IXP
		break
	}
	b := get(t, srv.URL+"/v1/report/"+ixp, http.StatusOK)
	w, err := rpi.UnmarshalReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if w.Summary.Total == 0 {
		t.Fatalf("empty report for %s", ixp)
	}
	for _, inf := range w.Inferences {
		if inf.IXP != ixp {
			t.Fatalf("foreign inference %+v in %s report", inf, ixp)
		}
	}
	get(t, srv.URL+"/v1/report/no-such-ixp", http.StatusNotFound)
}

func postApply(t *testing.T, url string, wd WireDelta, wantStatus int) *rpi.Update {
	t.Helper()
	body, err := json.Marshal(wd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /v1/apply: status %d, want %d (%s)", resp.StatusCode, wantStatus, b)
	}
	if wantStatus != http.StatusOK {
		return nil
	}
	var up rpi.Update
	if err := json.Unmarshal(b, &up); err != nil {
		t.Fatal(err)
	}
	return &up
}

// wireChurn renders a churn delta into the wire form.
func wireChurn(d rpi.Delta) WireDelta {
	var wd WireDelta
	for _, j := range d.Joins {
		wd.Joins = append(wd.Joins, WireJoin{
			IXP: j.IXP, Iface: j.Iface.String(), ASN: uint32(j.ASN), PortMbps: j.PortMbps,
		})
	}
	for _, l := range d.Leaves {
		wd.Leaves = append(wd.Leaves, WireKey{IXP: l.IXP, Iface: l.Iface.String()})
	}
	return wd
}

func TestApplyOverHTTP(t *testing.T) {
	eng, srv := testServer(t)
	d := rpi.ChurnDelta(eng.Inputs(), 0.005, 5)
	up := postApply(t, srv.URL, wireChurn(d), http.StatusOK)
	if up.Seq != 1 || up.Joined != len(d.Joins) || up.Left != len(d.Leaves) {
		t.Fatalf("update = %+v", up)
	}

	// An RTT refresh for a currently measured interface, no vp_id.
	idx := eng.Inputs().Ping.IfaceIndex()
	var iface string
	for ip := range idx {
		iface = ip.String()
		break
	}
	up = postApply(t, srv.URL, WireDelta{RTT: []WireRTT{{Iface: iface, RTTMinMs: 42.5}}}, http.StatusOK)
	if up.RTTRefreshed != 1 {
		t.Fatalf("update = %+v", up)
	}

	// Bad deltas: malformed address, poisoned RTT, unknown membership,
	// garbage body.
	postApply(t, srv.URL, WireDelta{Leaves: []WireKey{{IXP: "x", Iface: "not-an-ip"}}}, http.StatusBadRequest)
	postApply(t, srv.URL, WireDelta{RTT: []WireRTT{{Iface: iface, RTTMinMs: -3}}}, http.StatusBadRequest)
	postApply(t, srv.URL, WireDelta{RTT: []WireRTT{{Iface: iface}}}, http.StatusBadRequest)
	postApply(t, srv.URL, WireDelta{Leaves: []WireKey{{IXP: "no-such-ixp", Iface: "203.0.113.1"}}}, http.StatusUnprocessableEntity)
	resp, err := http.Post(srv.URL+"/v1/apply", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d", resp.StatusCode)
	}
}

// TestConcurrentInferAndApply exercises the engine's locking under the
// race detector: readers hammer /v1/infer and /v1/report while applies
// churn memberships back and forth.
func TestConcurrentInferAndApply(t *testing.T) {
	eng, srv := testServer(t)
	fwd := rpi.ChurnDelta(eng.Inputs(), 0.005, 11)
	rev := rpi.InvertDelta(eng.Inputs(), fwd)

	var ixp string
	for k := range eng.Snapshot().Inferences {
		ixp = k.IXP
		break
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				url := srv.URL + "/v1/infer"
				if i%2 == r%2 {
					url = srv.URL + "/v1/report/" + ixp
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: %d", url, resp.StatusCode)
					return
				}
				if _, err := rpi.UnmarshalReport(b); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			wd := wireChurn(fwd)
			if i%2 == 1 {
				wd = wireChurn(rev)
			}
			body, _ := json.Marshal(wd)
			resp, err := http.Post(srv.URL+"/v1/apply", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("apply %d: %d (%s)", i, resp.StatusCode, b)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if eng.Seq() != 6 {
		t.Fatalf("seq = %d, want 6", eng.Seq())
	}
}
