package rpi

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/netip"
	"testing"

	"rpeer/internal/netsim"
)

// checkPlane builds rep's plane under roster and holds it to the
// MarshalReport oracle: the full slab, and every roster IXP's pieces
// against MarshalReport of FilterIXP. An IXP off the roster has no
// entry.
func checkPlane(t *testing.T, rep *Report, roster []string) {
	t.Helper()
	p, err := BuildPlane(context.Background(), rep, roster)
	if err != nil {
		t.Fatal(err)
	}
	if want := wireBytes(t, rep); !bytes.Equal(p.Full(), want) {
		t.Fatalf("plane full report differs from MarshalReport:\n%s\nwant\n%s", p.Full(), want)
	}
	for _, ixp := range roster {
		r, ok := p.IXP(ixp)
		if !ok {
			t.Fatalf("roster IXP %q has no plane entry", ixp)
		}
		var got bytes.Buffer
		if n, err := r.WriteTo(&got); err != nil || n != int64(got.Len()) {
			t.Fatalf("report of %q: WriteTo says %d bytes (err %v), wrote %d", ixp, n, err, got.Len())
		}
		sub, err := FilterIXP(context.Background(), rep, ixp)
		if err != nil {
			t.Fatal(err)
		}
		if want := wireBytes(t, sub); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("plane report of %q differs from MarshalReport:\n%s\nwant\n%s", ixp, got.Bytes(), want)
		}
	}
	if _, ok := p.IXP("no-such-ixp"); ok {
		t.Fatal("an IXP off the roster has a plane entry")
	}
}

func TestPlaneMatchesMarshal(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	checkPlane(t, eng.Snapshot(), eng.IXPs())
}

// TestPlaneEdgeRows holds the encoder to the oracle on the rows a
// generated world rarely or never produces.
func TestPlaneEdgeRows(t *testing.T) {
	addr := netip.MustParseAddr
	row := func(ixp, ip string, class PeerClass, rtt float64) *Inference {
		return &Inference{IXP: ixp, Iface: addr(ip), ASN: 64500, Class: class, Step: StepRTTColo,
			RTTMinMs: rtt, FeasibleIXPFacilities: 2}
	}
	report := func(rows []*Inference, routers ...*MultiIXPRouter) *Report {
		rep := &Report{Inferences: make(map[Key]*Inference), MultiRouters: routers}
		for _, r := range rows {
			rep.Inferences[Key{IXP: r.IXP, Iface: r.Iface}] = r
		}
		return rep
	}
	nan := row("A", "10.0.0.1", ClassUnknown, math.NaN())
	nan.Step = StepNone
	noFac := row("A", "10.0.0.2", ClassLocal, 0.5)
	noFac.FeasibleIXPFacilities = -1
	trace := row("A", "10.0.0.3", ClassRemote, 12.25)
	trace.TraceRTT = true
	router := func(asn uint32, ixps ...string) *MultiIXPRouter {
		return &MultiIXPRouter{ASN: netsim.ASN(asn), Ifaces: []netip.Addr{addr("10.9.0.1"), addr("10.9.0.2")},
			IXPs: ixps, Class: RouterHybrid}
	}
	cases := []struct {
		name   string
		rep    *Report
		roster []string
	}{
		{"NaN RTT omitted", report([]*Inference{nan}), []string{"A"}},
		{"no feasible facilities", report([]*Inference{noFac}), []string{"A"}},
		{"trace RTT", report([]*Inference{trace}), []string{"A"}},
		{"tiny RTT takes the e form", report([]*Inference{
			row("A", "10.0.0.4", ClassLocal, 3e-7), row("A", "10.0.0.5", ClassLocal, 1.5e-12),
			row("A", "10.0.0.6", ClassRemote, 1e-6), row("A", "10.0.0.7", ClassRemote, 2e21),
		}), []string{"A"}},
		{"HTML-escaped IXP name", report([]*Inference{row("R&D <IX>", "10.0.1.1", ClassLocal, 1)},
			router(7, "R&D <IX>")), []string{"R&D <IX>"}},
		{"roster IXP with zero rows", report([]*Inference{row("A", "10.0.0.1", ClassLocal, 1)}),
			[]string{"A", "Empty"}},
		{"IXP with no routers", report([]*Inference{row("A", "10.0.0.1", ClassLocal, 1),
			row("B", "10.0.2.1", ClassRemote, 20)}, router(9, "B")), []string{"A", "B"}},
		{"router at several IXPs", report([]*Inference{row("A", "10.0.0.1", ClassLocal, 1),
			row("B", "10.0.2.1", ClassRemote, 20), row("C", "10.0.3.1", ClassLocal, 1)},
			router(9, "A", "B"), router(3, "B", "C", "B"), router(9, "C")), []string{"A", "B", "C"}},
		{"wire order is the interface string", report([]*Inference{
			row("A", "10.0.0.9", ClassLocal, 1), row("A", "10.0.0.10", ClassLocal, 1),
			row("A", "10.0.0.100", ClassLocal, 1), row("A", "9.0.0.1", ClassLocal, 1),
		}), []string{"A"}},
		{"IPv6 and zoned interfaces", report([]*Inference{row("A", "2001:db8::a", ClassLocal, 1),
			row("A", "2001:db8::9", ClassLocal, 1), row("A", "fe80::1%a<b", ClassLocal, 1),
			row("A", "fe80::1%a", ClassRemote, 1), row("A", "10.0.0.1", ClassLocal, 1)}), []string{"A"}},
		{"rows off the roster", report([]*Inference{row("A", "10.0.0.1", ClassLocal, 1),
			row("Gone", "10.0.4.1", ClassLocal, 1)}), []string{"A"}},
		{"empty report", report(nil), []string{"A"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkPlane(t, tc.rep, tc.roster)
		})
	}
}

func TestPlaneHonorsCancel(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildPlane(ctx, eng.Snapshot(), eng.IXPs()); !errors.Is(err, ErrCanceled) {
		t.Fatalf("BuildPlane on a done context: err = %v, want ErrCanceled", err)
	}
}

// TestPlaneReadsAlignedRows: Report.Rows, which the plane reads, hands
// back a context-built report's domain-ordered array, not a copy.
func TestPlaneReadsAlignedRows(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Snapshot()
	rows := rep.Rows()
	if len(rows) != len(rep.Inferences) {
		t.Fatalf("Rows has %d rows, the map %d", len(rows), len(rep.Inferences))
	}
	for i := range rows {
		if rep.Inferences[Key{IXP: rows[i].IXP, Iface: rows[i].Iface}] != &rows[i] {
			t.Fatalf("row %d is not the map's inference", i)
		}
	}
}
