package bot

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rpeer/internal/host"
	"rpeer/internal/netsim"
	"rpeer/pkg/rpi"
	"rpeer/pkg/rpi/serve"
)

func TestCollectorObserve(t *testing.T) {
	for _, tc := range []struct {
		status                                    int
		admitted, shed, rejected, errs, histCount int
	}{
		{status: 200, admitted: 1, histCount: 1},
		{status: 503, shed: 1},
		{status: 400, rejected: 1},
		{status: 422, rejected: 1},
		{status: serve.StatusClientClosedRequest, errs: 1},
		{status: 0, errs: 1},
		{status: 500, errs: 1},
	} {
		var c collector
		c.observe(tc.status, time.Millisecond)
		st := c.stats()
		got := []uint64{st.Requests, st.Admitted, st.Shed, st.Rejected, st.Errors, uint64(len(c.hist.samples))}
		want := []uint64{1, uint64(tc.admitted), uint64(tc.shed), uint64(tc.rejected), uint64(tc.errs), uint64(tc.histCount)}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("status %d: [requests admitted shed rejected errors samples] = %v, want %v", tc.status, got, want)
				break
			}
		}
	}
}

func TestHistDecimation(t *testing.T) {
	// 1..n ms in order: decimation keeps an evenly strided subsample, so
	// the quantiles stay those of the uniform distribution.
	const n = 5 * histCap
	var h hist
	for i := 1; i <= n; i++ {
		h.observe(time.Duration(i) * time.Millisecond)
	}
	if len(h.samples) >= histCap {
		t.Fatalf("hist holds %d samples, cap %d", len(h.samples), histCap)
	}
	for _, q := range []float64{0.50, 0.99} {
		got, want := h.quantileMs(q), q*n
		if d := got - want; d > 0.01*n || d < -0.01*n {
			t.Errorf("p%.0f = %.0f ms, want %.0f ± 1%%", 100*q, got, want)
		}
	}

	var small hist
	for i := 100; i >= 1; i-- {
		small.observe(time.Duration(i) * time.Millisecond)
	}
	if p50, p99 := small.quantileMs(0.50), small.quantileMs(0.99); p50 != 50 || p99 != 99 {
		t.Errorf("1..100 ms: p50 %v p99 %v, want 50 and 99", p50, p99)
	}
}

// TestChurnRoundTrip: a churn delta and its inverse, as the bot encodes
// them on the wire, both commit on an in-process host and return the
// served report to its starting bytes.
func TestChurnRoundTrip(t *testing.T) {
	h, err := host.Open(host.Config{
		Inputs: func(sp host.TenantSpec) (rpi.Inputs, error) {
			return rpi.InputsFromConfig(netsim.TinyConfig(), sp.Seed)
		},
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.Create(host.TenantSpec{Name: "a", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewHost(h, "", serve.Config{Logger: log.New(io.Discard, "", 0)}))
	defer srv.Close()
	base := srv.URL + "/v1/t/a/"

	read := func() []byte {
		t.Helper()
		resp, err := http.Get(base + "infer")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("infer: status %d, %v", resp.StatusCode, err)
		}
		return b
	}
	post := func(d rpi.Delta) {
		t.Helper()
		body, err := marshalWireDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"apply", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("apply: status %d: %s", resp.StatusCode, msg)
		}
	}

	before := read()
	lease, err := h.Lease(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	in := lease.Guard().Engine().Inputs()
	lease.Release()
	d := rpi.ChurnDelta(in, 0.05, 7)
	if len(d.Joins) == 0 || len(d.Leaves) == 0 {
		t.Fatalf("churn delta has %d joins, %d leaves; want both", len(d.Joins), len(d.Leaves))
	}
	inv := rpi.InvertDelta(in, d)
	post(d)
	if bytes.Equal(read(), before) {
		t.Fatal("forward delta left the served report unchanged")
	}
	post(inv)
	if after := read(); !bytes.Equal(after, before) {
		t.Fatalf("after delta+inverse: %d bytes, want the starting %d", len(after), len(before))
	}
}

// TestShedWithoutRetryAfterIsViolation: a 503 is shedding only when it
// tells the client when to come back.
func TestShedWithoutRetryAfterIsViolation(t *testing.T) {
	for _, retry := range []bool{true, false} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if retry {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		l, err := Start(context.Background(), Config{
			BaseURL: srv.URL, Tenants: []string{"a"}, Readers: 1, Duration: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := l.Wait()
		srv.Close()
		if st := rep.Tenants["a"]["read"]; st.Shed == 0 {
			t.Errorf("retry=%v: no shed reads recorded: %+v", retry, st)
		}
		if bad := strings.Contains(rep.BadStatus, "without Retry-After"); bad == retry {
			t.Errorf("retry=%v: BadStatus %q", retry, rep.BadStatus)
		}
	}
}
