package rpi

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"sync"
	"testing"

	"rpeer/internal/core"
	"rpeer/internal/evolve"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
)

var (
	fixOnce sync.Once
	fixIn   Inputs
	fixErr  error
)

func testInputs(t testing.TB) Inputs {
	t.Helper()
	fixOnce.Do(func() {
		fixIn, fixErr = SyntheticInputs(1, 1)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixIn
}

func TestNewRequiresInputs(t *testing.T) {
	if _, err := New(Inputs{}); !errors.Is(err, ErrMissingInput) {
		t.Fatalf("err = %v, want ErrMissingInput", err)
	}
}

func TestEngineSnapshotShape(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Snapshot()
	if rep.Len() == 0 || len(rep.MultiRouters) == 0 {
		t.Fatalf("degenerate snapshot: %d inferences, %d routers",
			rep.Len(), len(rep.MultiRouters))
	}
	base, err := eng.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if base.Len() != rep.Len() {
		t.Fatal("baseline domain differs from pipeline domain")
	}
	if _, err := eng.ReportFor(context.Background(), "no-such-ixp"); !errors.Is(err, ErrUnknownIXP) {
		t.Fatalf("err = %v, want ErrUnknownIXP", err)
	}
}

// TestEngineDoesNotMutateCallerInputs pins the ownership contract: the
// engine clones the dataset, so applied deltas never leak out.
func TestEngineDoesNotMutateCallerInputs(t *testing.T) {
	in := testInputs(t)
	before := len(in.Dataset.IfaceIXP)
	eng, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(context.Background(), ChurnDelta(eng.Inputs(), 0.01, 7)); err != nil {
		t.Fatal(err)
	}
	if len(in.Dataset.IfaceIXP) != before {
		t.Fatal("Apply mutated the caller's dataset")
	}
}

// TestApplyMatchesColdEngine is the acceptance contract of the
// incremental path: after a 1% churn delta, the engine's snapshot must
// be byte-identical (on the wire) to a cold engine built over the
// post-delta inputs.
func TestApplyMatchesColdEngine(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	d := ChurnDelta(eng.Inputs(), 0.01, 42)
	if len(d.Joins) == 0 || len(d.Leaves) == 0 {
		t.Fatalf("degenerate churn delta: %d joins, %d leaves", len(d.Joins), len(d.Leaves))
	}
	up, err := eng.Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if up.Seq != 1 || len(up.Changes) == 0 {
		t.Fatalf("update = seq %d with %d changes, want seq 1 with changes", up.Seq, len(up.Changes))
	}

	cold, err := New(eng.Inputs())
	if err != nil {
		t.Fatal(err)
	}
	warmBytes, err := MarshalReport(eng.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	coldBytes, err := MarshalReport(cold.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warmBytes, coldBytes) {
		t.Fatalf("incremental snapshot diverges from cold rebuild (%d vs %d bytes)",
			len(warmBytes), len(coldBytes))
	}
}

// TestApplyEvolveAndRecampaign: a simulated churn month (its joins
// and departures sampled against the current inputs) and a refreshed
// ping campaign (every usable re-measurement overriding the old one),
// applied incrementally, must still match a cold rebuild.
func TestApplyEvolveAndRecampaign(t *testing.T) {
	in := testInputs(t)
	eng, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	var ixps []netsim.IXPID
	for _, ix := range in.World.IXPs {
		ixps = append(ixps, ix.ID)
	}
	series := evolve.Simulate(in.World, ixps, evolve.DefaultConfig())
	month := series.Months[0]
	churn := sampleDelta(eng.Inputs(), month.NewLocal+month.NewRemote, month.GoneLocal+month.GoneRemote, 5)
	if _, err := eng.Apply(context.Background(), churn); err != nil {
		t.Fatal(err)
	}

	pcfg := pingsim.DefaultCampaign()
	pcfg.Seed = 777
	refresh := pingsim.Run(in.World, in.Ping.VPs, pcfg, 1)
	if _, err := eng.Apply(context.Background(), Delta{Ping: pingsim.Overrides(refresh)}); err != nil {
		t.Fatal(err)
	}
	if eng.Seq() != 2 {
		t.Fatalf("seq = %d, want 2", eng.Seq())
	}

	cold, err := New(eng.Inputs())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := MarshalReport(eng.Snapshot())
	b, _ := MarshalReport(cold.Snapshot())
	if !bytes.Equal(a, b) {
		t.Fatal("evolve+recampaign deltas diverge from cold rebuild")
	}
}

// TestApplyInverseRoundTrip pins the benchmark workload: a delta
// followed by its inverse restores the original verdict set.
func TestApplyInverseRoundTrip(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	before, err := MarshalReport(eng.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	d := ChurnDelta(eng.Inputs(), 0.01, 13)
	inv := InvertDelta(eng.Inputs(), d)
	if _, err := eng.Apply(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(context.Background(), inv); err != nil {
		t.Fatal(err)
	}
	after, err := MarshalReport(eng.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Port refreshes are not rolled back; compare domains only when the
	// delta carried no port rows, otherwise compare sizes.
	if !bytes.Equal(before, after) {
		repA, _ := UnmarshalReport(before)
		repB, _ := UnmarshalReport(after)
		if repA.Summary.Total != repB.Summary.Total {
			t.Fatalf("round trip changed the domain: %d vs %d memberships",
				repA.Summary.Total, repB.Summary.Total)
		}
	}
}

func TestSubscribeStreamsChanges(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := eng.Subscribe(4)
	defer cancel()
	d := ChurnDelta(eng.Inputs(), 0.005, 21)
	up, err := eng.Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	got := <-ch
	if got.Seq != up.Seq || len(got.Changes) != len(up.Changes) {
		t.Fatalf("subscriber saw seq %d (%d changes), apply returned seq %d (%d changes)",
			got.Seq, len(got.Changes), up.Seq, len(up.Changes))
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("cancel did not close the channel")
	}

	eng.Close()
	if _, err := eng.Apply(context.Background(), d); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestApplyRejectsBadDelta(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	first := eng.Snapshot().At(0)
	bad := Delta{Joins: []Join{{IXP: first.IXP, Iface: first.Iface, ASN: 99}}}
	if _, err := eng.Apply(context.Background(), bad); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("err = %v, want ErrBadDelta", err)
	}
	if eng.Seq() != 0 {
		t.Fatal("rejected delta bumped the sequence number")
	}
	// An empty delta is a no-op: no re-run, no sequence bump.
	up, err := eng.Apply(context.Background(), Delta{})
	if err != nil || up.Seq != 0 || len(up.Changes) != 0 {
		t.Fatalf("empty delta: up=%+v err=%v, want no-op", up, err)
	}
	// A measured override without a vantage point resolves to the
	// interface's current best VP — and fails cleanly when it has none.
	var unmeasured Key
	for _, inf := range eng.Snapshot().All() {
		if !inf.HasRTT() {
			unmeasured = Key{IXP: inf.IXP, Iface: inf.Iface}
			break
		}
	}
	if !unmeasured.Iface.IsValid() {
		t.Fatal("fixture has no unmeasured interface")
	}
	noVP := Delta{Ping: map[netip.Addr]pingsim.IfaceAgg{unmeasured.Iface: {RTTMinMs: 5}}}
	if _, err := eng.Apply(context.Background(), noVP); !errors.Is(err, ErrBadDelta) {
		t.Fatalf("err = %v, want ErrBadDelta for unmeasured iface without VP", err)
	}
	var measured Key
	for _, inf := range eng.Snapshot().All() {
		if inf.HasRTT() && !inf.TraceRTT {
			measured = Key{IXP: inf.IXP, Iface: inf.Iface}
			break
		}
	}
	inherit := Delta{Ping: map[netip.Addr]pingsim.IfaceAgg{measured.Iface: {RTTMinMs: 5}}}
	if _, err := eng.Apply(context.Background(), inherit); err != nil {
		t.Fatalf("VP inheritance failed for measured iface: %v", err)
	}
}

// TestWithThresholdBaseline pins that Engine.Baseline serves the
// configured threshold: its wire bytes equal a cold context's
// Baseline at the same threshold, and differ from the default's.
func TestWithThresholdBaseline(t *testing.T) {
	in := testInputs(t)
	eng, err := New(in, WithThreshold(5))
	if err != nil {
		t.Fatal(err)
	}
	base, err := eng.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	got, err := MarshalReport(base)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.NewContext(eng.Inputs())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ms   float64
		same bool
	}{{5, true}, {DefaultBaselineThresholdMs, false}} {
		rep, err := cold.Baseline(tc.ms)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MarshalReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, want) != tc.same {
			t.Fatalf("WithThreshold(5) baseline vs cold Baseline(%v): equal = %v, want %v", tc.ms, !tc.same, tc.same)
		}
	}
}

// TestPublishedReportIsImmutable holds published reports to their
// immutability contract. Every publication's rows and plane bytes are
// kept while churn deltas (each a new domain version) and RTT deltas
// (the context's RTT column written in place, the domain version
// shared with the previous report) land, three times over, and a reader
// walks the first report. Afterwards every At and Lookup of every kept
// report, and a plane built from it, must be unchanged. Run under
// -race, the reader also shows that no write of the applies reaches
// memory a published report reads.
func TestPublishedReportIsImmutable(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	type kept struct {
		rep  *Report
		rows []Inference
		full []byte
	}
	var pubs []kept
	keep := func() {
		rep := eng.Snapshot()
		k := kept{rep: rep}
		for _, inf := range rep.All() {
			k.rows = append(k.rows, inf)
		}
		plane, err := BuildPlane(context.Background(), rep, eng.IXPs())
		if err != nil {
			t.Fatal(err)
		}
		k.full = bytes.Clone(plane.Full())
		pubs = append(pubs, k)
	}
	keep()

	first := pubs[0].rep
	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for i := 0; i < first.Len(); i += 17 {
				inf := first.At(i)
				first.Lookup(Key{IXP: inf.IXP, Iface: inf.Iface})
			}
		}
	}()
	for round := int64(0); round < 3; round++ {
		for _, d := range []Delta{
			ChurnDelta(eng.Inputs(), 0.05, 11+round),
			{Ping: overrides(eng.Inputs(), 40, 5+round, false)},
		} {
			if _, err := eng.Apply(context.Background(), d); err != nil {
				t.Fatal(err)
			}
			keep()
		}
	}
	close(done)
	reader.Wait()

	for seq, k := range pubs {
		if seq > 0 && bytes.Equal(k.full, pubs[seq-1].full) {
			t.Fatalf("seq %d: the delta moved nothing; the test is vacuous", seq)
		}
		if k.rep.Len() != len(k.rows) {
			t.Fatalf("seq %d: the report has %d rows, had %d", seq, k.rep.Len(), len(k.rows))
		}
		for i, want := range k.rows {
			if got := k.rep.At(i); !sameInference(got, want) {
				t.Fatalf("seq %d: At(%d) = %+v, was %+v", seq, i, got, want)
			}
			if got, ok := k.rep.Lookup(Key{IXP: want.IXP, Iface: want.Iface}); !ok || !sameInference(got, want) {
				t.Fatalf("seq %d: Lookup of row %d = %+v, %v; was %+v", seq, i, got, ok, want)
			}
		}
		again, err := BuildPlane(context.Background(), k.rep, eng.IXPs())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Full(), k.full) {
			t.Fatalf("seq %d: the plane built from the kept report changed", seq)
		}
	}
}
