package rpi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rpeer/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite the wire-schema golden file")

// toWire is the reference encoder the report plane is held to: it
// builds the wire form field by field from the report's rows, and
// oracleBytes leaves the layout to encoding/json. It shares no code
// with BuildPlane, so the golden test, checkPlane and
// FuzzApplySequence compare the plane with an independent encoder.
func toWire(rep *Report) *WireReport {
	w := &WireReport{Version: WireVersion}
	w.Inferences = make([]WireInference, 0, rep.Len())
	for _, inf := range rep.All() {
		wi := WireInference{
			IXP:   inf.IXP,
			Iface: inf.Iface.String(),
			ASN:   uint32(inf.ASN),
			Class: inf.Class.String(),
			Step:  stepName(inf.Step),
		}
		if !math.IsNaN(inf.RTTMinMs) {
			v := inf.RTTMinMs
			wi.RTTMinMs = &v
		}
		if inf.FeasibleIXPFacilities >= 0 {
			v := inf.FeasibleIXPFacilities
			wi.FeasibleIXPFacilities = &v
		}
		wi.TraceRTT = inf.TraceRTT
		w.Inferences = append(w.Inferences, wi)
		switch inf.Class {
		case core.ClassLocal:
			w.Summary.Local++
		case core.ClassRemote:
			w.Summary.Remote++
		default:
			w.Summary.Unknown++
		}
	}
	w.Summary.Total = len(w.Inferences)
	sort.Slice(w.Inferences, func(i, j int) bool {
		if w.Inferences[i].IXP != w.Inferences[j].IXP {
			return w.Inferences[i].IXP < w.Inferences[j].IXP
		}
		return w.Inferences[i].Iface < w.Inferences[j].Iface
	})
	for _, r := range rep.MultiRouters {
		wr := WireRouter{ASN: uint32(r.ASN), Class: r.Class.String()}
		for _, ip := range r.Ifaces {
			wr.Ifaces = append(wr.Ifaces, ip.String())
		}
		wr.IXPs = append(wr.IXPs, r.IXPs...)
		w.Routers = append(w.Routers, wr)
	}
	sort.Slice(w.Routers, func(i, j int) bool {
		if w.Routers[i].ASN != w.Routers[j].ASN {
			return w.Routers[i].ASN < w.Routers[j].ASN
		}
		return w.Routers[i].Ifaces[0] < w.Routers[j].Ifaces[0]
	})
	return w
}

// oracleBytes is the oracle's wire bytes for rep.
func oracleBytes(rep *Report) ([]byte, error) {
	return json.MarshalIndent(toWire(rep), "", " ")
}

// goldenIXP picks the IXP with the fewest memberships (ties broken by
// name) — a small, deterministic slice of the seed world.
func goldenIXP(rep *Report) string {
	counts := make(map[string]int)
	for _, inf := range rep.All() {
		counts[inf.IXP]++
	}
	best, bestN := "", -1
	for name, n := range counts {
		if bestN == -1 || n < bestN || (n == bestN && name < best) {
			best, bestN = name, n
		}
	}
	return best
}

// TestWireSchemaGolden pins the /v1 wire schema: marshalling a
// seed-world report, through MarshalReport and through the oracle,
// must reproduce the committed golden byte for byte.
// Schema drift therefore fails CI until the golden is regenerated on
// purpose (go test ./pkg/rpi -run Golden -update) and the diff is
// reviewed — the API contract test for rpi-serve clients.
func TestWireSchemaGolden(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eng.ReportFor(context.Background(), goldenIXP(eng.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := MarshalReport(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wireBytes(t, sub)) {
		t.Fatal("MarshalReport differs from the oracle encoder")
	}
	path := filepath.Join("testdata", "report_v1.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %d bytes", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire schema drifted from golden (%d vs %d bytes); if intentional, bump "+
			"WireVersion and regenerate with -update", len(got), len(want))
	}
}

func TestWireRoundTrip(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalReport(eng.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	w, err := UnmarshalReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if w.Version != WireVersion || w.Summary.Total != eng.Snapshot().Len() {
		t.Fatalf("round trip lost data: %+v", w.Summary)
	}
	if w.Summary.Local+w.Summary.Remote+w.Summary.Unknown != w.Summary.Total {
		t.Fatal("summary counts inconsistent")
	}
}

func TestWireVersionRejected(t *testing.T) {
	if _, err := UnmarshalReport([]byte(`{"version": 99}`)); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("err = %v, want ErrWireVersion", err)
	}
	if _, err := UnmarshalReport([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}
