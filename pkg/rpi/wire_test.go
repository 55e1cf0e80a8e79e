package rpi

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the wire-schema golden file")

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
// seed-world report must reproduce the committed golden byte for byte.
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
