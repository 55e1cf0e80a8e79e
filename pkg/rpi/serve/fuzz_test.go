package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"rpeer/pkg/rpi"
)

// FuzzWireDelta posts arbitrary bodies to /v1/apply on a one-tenant
// host over the tiny world, through the decoder, toDelta and the
// engine's validation. Every answer must be 200, 400 or 422: never a
// 500, a panic or a quarantined tenant (which would answer 503). A
// rejected body must leave the tenant's seq and its served /v1/infer
// bytes as they were. An accepted body moves the tenant on, so later
// inputs meet the world it left behind.
//
// The committed corpus (testdata/fuzz/FuzzWireDelta) holds the
// shape-level cases; the seeds added below carry addresses of the tiny
// world, so the fuzzer starts from deltas that apply.
func FuzzWireDelta(f *testing.F) {
	h := newTenantHost(f, tinyInputs(f))
	_, srv := serveHost(f, h, Config{})
	g := defaultGuard(f, h)

	in := g.Engine().Inputs()
	churn := rpi.ChurnDelta(in, 0.05, 3)
	var wd WireDelta
	for _, j := range churn.Joins {
		wd.Joins = append(wd.Joins, WireJoin{IXP: j.IXP, Iface: j.Iface.String(), ASN: uint32(j.ASN), PortMbps: j.PortMbps})
	}
	for _, l := range churn.Leaves {
		wd.Leaves = append(wd.Leaves, WireKey{IXP: l.IXP, Iface: l.Iface.String()})
		wd.RTT = append(wd.RTT, WireRTT{Iface: l.Iface.String(), RTTMinMs: 7.5})
	}
	vp := 0
	for _, seed := range []WireDelta{
		wd,
		{Joins: wd.Joins[:1]},
		{Leaves: wd.Leaves[:1]},
		{RTT: []WireRTT{{Iface: wd.Leaves[0].Iface, RTTMinMs: 3, VPID: &vp, RoundsUp: true}}},
		{RTT: []WireRTT{{Iface: wd.Leaves[0].Iface, Drop: true}}},
	} {
		b, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		seq := g.Engine().Seq()
		served := get(t, srv.URL+"/v1/infer", http.StatusOK)
		resp, err := http.Post(srv.URL+"/v1/apply", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if g.Quarantined() {
			t.Fatalf("body %q quarantined the tenant (status %d: %s)", body, resp.StatusCode, msg)
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			if now := g.Engine().Seq(); now != seq {
				t.Fatalf("rejected body %q (status %d) moved the seq %d -> %d", body, resp.StatusCode, seq, now)
			}
			if !bytes.Equal(get(t, srv.URL+"/v1/infer", http.StatusOK), served) {
				t.Fatalf("rejected body %q (status %d) changed the served report", body, resp.StatusCode)
			}
		default:
			t.Fatalf("body %q: status %d (%s), want 200, 400 or 422", body, resp.StatusCode, msg)
		}
	})
}
