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
	if w.Summary.Total != eng.Snapshot().Len() {
		t.Fatalf("served %d memberships, engine has %d", w.Summary.Total, eng.Snapshot().Len())
	}
	want, _ := rpi.MarshalReport(eng.Snapshot())
	if !bytes.Equal(b, want) {
		t.Fatal("served bytes differ from MarshalReport")
	}
}

// inferReport fetches and decodes the full wire report.
func inferReport(t *testing.T, url string) *rpi.WireReport {
	t.Helper()
	w, err := rpi.UnmarshalReport(get(t, url+"/v1/infer", http.StatusOK))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestInferSummary: the headline counts a portal front page shows are
// /v1/infer's summary, consistent with the rows it covers.
func TestInferSummary(t *testing.T) {
	_, srv := testServer(t)
	w := inferReport(t, srv.URL)
	sum := w.Summary
	if sum.Total < 5000 || sum.Total != len(w.Inferences) {
		t.Fatalf("total = %d over %d rows, want thousands", sum.Total, len(w.Inferences))
	}
	if sum.Local+sum.Remote+sum.Unknown != sum.Total {
		t.Fatalf("summary counts inconsistent: %+v", sum)
	}
	classes := map[string]int{}
	for _, inf := range w.Inferences {
		classes[inf.Class]++
	}
	if classes["local"] != sum.Local || classes["remote"] != sum.Remote || classes["unknown"] != sum.Unknown {
		t.Fatalf("row classes %v disagree with summary %+v", classes, sum)
	}
	if share := float64(sum.Remote) / float64(sum.Total); share < 0.15 || share > 0.45 {
		t.Errorf("remote share = %.3f, want ~0.28", share)
	}
}

// TestInferListsIXPs: the IXP list is the IXP names in /v1/infer's
// rows, and each of them answers on /v1/report/{ixp}.
func TestInferListsIXPs(t *testing.T) {
	_, srv := testServer(t)
	ixps := map[string]int{}
	for _, inf := range inferReport(t, srv.URL).Inferences {
		ixps[inf.IXP]++
	}
	if len(ixps) < 30 {
		t.Fatalf("ixps = %d", len(ixps))
	}
	for ixp, n := range ixps {
		w, err := rpi.UnmarshalReport(get(t, srv.URL+"/v1/report/"+ixp, http.StatusOK))
		if err != nil {
			t.Fatal(err)
		}
		if w.Summary.Total != n {
			t.Fatalf("%s: report has %d members, /v1/infer lists %d", ixp, w.Summary.Total, n)
		}
	}
}

// TestReportIXPMembers: an IXP's member list is /v1/report/{ixp} — for
// the largest IXP, exactly its /v1/infer rows, each interface once,
// each with a known class.
func TestReportIXPMembers(t *testing.T) {
	_, srv := testServer(t)
	rows := map[string]map[rpi.WireInference]bool{}
	for _, inf := range inferReport(t, srv.URL).Inferences {
		if rows[inf.IXP] == nil {
			rows[inf.IXP] = map[rpi.WireInference]bool{}
		}
		inf.RTTMinMs, inf.FeasibleIXPFacilities = nil, nil
		rows[inf.IXP][inf] = true
	}
	var name string
	for ixp, r := range rows {
		if len(r) > len(rows[name]) || (len(r) == len(rows[name]) && ixp < name) {
			name = ixp
		}
	}
	w, err := rpi.UnmarshalReport(get(t, srv.URL+"/v1/report/"+name, http.StatusOK))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Inferences) != len(rows[name]) {
		t.Fatalf("%s: %d members, /v1/infer lists %d", name, len(w.Inferences), len(rows[name]))
	}
	seen := map[string]bool{}
	for _, inf := range w.Inferences {
		if inf.Class != "local" && inf.Class != "remote" && inf.Class != "unknown" {
			t.Fatalf("bad class %q", inf.Class)
		}
		if seen[inf.Iface] {
			t.Fatalf("duplicate iface %s", inf.Iface)
		}
		seen[inf.Iface] = true
		inf.RTTMinMs, inf.FeasibleIXPFacilities = nil, nil
		if !rows[name][inf] {
			t.Fatalf("%s: member %+v is not a /v1/infer row", name, inf)
		}
	}
}

// TestReportUnknownIXP: an IXP name the world does not hold is a 404
// on the short and the tenant-scoped route alike, and names match
// exactly, not by case.
func TestReportUnknownIXP(t *testing.T) {
	eng, srv := testServer(t)
	known := eng.Snapshot().At(0).IXP
	paths := []string{"/v1/report/Nowhere-IX", "/v1/t/" + defTenant + "/report/Nowhere-IX"}
	if other := strings.ToLower(known); other != known {
		paths = append(paths, "/v1/report/"+other)
	} else if other := strings.ToUpper(known); other != known {
		paths = append(paths, "/v1/report/"+other)
	}
	for _, path := range paths {
		get(t, srv.URL+path, http.StatusNotFound)
	}
}

// TestInferMethodNotAllowed: the read routes refuse a write method and
// the write route a read, with 405.
func TestInferMethodNotAllowed(t *testing.T) {
	_, srv := testServer(t)
	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/v1/infer"},
		{http.MethodPost, "/v1/t/" + defTenant + "/infer"},
		{http.MethodDelete, "/v1/infer"},
		{http.MethodGet, "/v1/apply"},
	} {
		req, err := http.NewRequest(c.method, srv.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
	}
}

func TestReportPerIXP(t *testing.T) {
	eng, srv := testServer(t)
	ixp := eng.Snapshot().At(0).IXP
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

	ixp := eng.Snapshot().At(0).IXP
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
