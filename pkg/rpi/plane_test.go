package rpi

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"rpeer/internal/core"
	"rpeer/internal/netsim"
)

// checkPlane builds rep's plane under roster and holds it to the
// oracle encoder (toWire): the full slab, and every roster IXP's
// pieces against the oracle's bytes for FilterIXP. An IXP off the
// roster has no entry.
func checkPlane(t *testing.T, rep *Report, roster []string) {
	t.Helper()
	p, err := BuildPlane(context.Background(), rep, roster)
	if err != nil {
		t.Fatal(err)
	}
	if want := wireBytes(t, rep); !bytes.Equal(p.Full(), want) {
		t.Fatalf("plane full report differs from the oracle:\n%s\nwant\n%s", p.Full(), want)
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
			t.Fatalf("plane report of %q differs from the oracle:\n%s\nwant\n%s", ixp, got.Bytes(), want)
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
	// The SDK never turns traceroute RTTs on; a context run with them
	// fills the trace_rtt rows the engine's reports leave out.
	opt := core.DefaultOptions()
	opt.UseTracerouteRTT = true
	rep, err := eng.ctx.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	traced := 0
	for _, inf := range rep.All() {
		if inf.TraceRTT {
			traced++
		}
	}
	if traced == 0 {
		t.Fatal("a traceroute-RTT run derived no RTT")
	}
	checkPlane(t, rep, eng.IXPs())
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
	// JSON has no infinity: every encoder refuses an infinite RTT
	// rather than write a number a client cannot parse.
	for _, rtt := range []float64{math.Inf(1), math.Inf(-1)} {
		rep := report([]*Inference{row("A", "10.0.0.1", ClassRemote, rtt)})
		if _, err := MarshalReport(rep); err == nil {
			t.Errorf("MarshalReport accepted RTT %v", rtt)
		}
		if _, err := BuildPlane(context.Background(), rep, []string{"A"}); err == nil {
			t.Errorf("BuildPlane accepted RTT %v", rtt)
		}
		if _, err := oracleBytes(rep); err == nil {
			t.Errorf("the oracle accepted RTT %v", rtt)
		}
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

// TestPlaneReadsAlignedRows: the accessors the plane reads agree on a
// context-built report's rows. At walks them in domain order (IXP name,
// then interface address), each IXP's rows are the one range IXPRange
// names, and Lookup finds every row. A context never fills the literal
// Inferences map.
func TestPlaneReadsAlignedRows(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Snapshot()
	if rep.Len() == 0 || len(rep.Inferences) != 0 {
		t.Fatalf("report has %d rows and a literal map of %d", rep.Len(), len(rep.Inferences))
	}
	var prev Inference
	for i, inf := range rep.All() {
		if i > 0 && (inf.IXP < prev.IXP || inf.IXP == prev.IXP && !prev.Iface.Less(inf.Iface)) {
			t.Fatalf("row %d (%s/%s) is not after row %d (%s/%s)", i, inf.IXP, inf.Iface, i-1, prev.IXP, prev.Iface)
		}
		if lo, hi := rep.IXPRange(inf.IXP); i < lo || i >= hi {
			t.Fatalf("row %d outside its IXP's range [%d, %d)", i, lo, hi)
		}
		got, ok := rep.Lookup(Key{IXP: inf.IXP, Iface: inf.Iface})
		if !ok || !sameInference(got, inf) {
			t.Fatalf("Lookup of row %d: %+v, %v; want %+v", i, got, ok, inf)
		}
		prev = inf
	}
	if _, ok := rep.Lookup(Key{IXP: prev.IXP, Iface: netip.MustParseAddr("192.0.2.1")}); ok {
		t.Fatal("Lookup found a membership the report does not hold")
	}
}

// sameInference compares two verdicts, NaN RTTs equal.
func sameInference(a, b Inference) bool {
	if math.IsNaN(a.RTTMinMs) && math.IsNaN(b.RTTMinMs) {
		a.RTTMinMs, b.RTTMinMs = 0, 0
	}
	return a == b
}

// TestWireRankOrdersAsStrings: wireRank4 orders IPv4 addresses exactly
// as their dotted strings compare, over every pair of octet values in
// each position and a random sample of whole addresses.
func TestWireRankOrdersAsStrings(t *testing.T) {
	check := func(a, b netip.Addr) {
		t.Helper()
		want := strings.Compare(a.String(), b.String())
		if got := cmp.Compare(wireRank4(a), wireRank4(b)); got != want {
			t.Fatalf("%s vs %s: rank order %d, string order %d", a, b, got, want)
		}
	}
	for pos := 0; pos < 4; pos++ {
		for x := 0; x < 256; x++ {
			for y := 0; y < 256; y++ {
				a, b := [4]byte{10, 20, 30, 40}, [4]byte{10, 20, 30, 40}
				a[pos], b[pos] = byte(x), byte(y)
				check(netip.AddrFrom4(a), netip.AddrFrom4(b))
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var a, b [4]byte
		binary.BigEndian.PutUint32(a[:], rng.Uint32())
		binary.BigEndian.PutUint32(b[:], rng.Uint32())
		check(netip.AddrFrom4(a), netip.AddrFrom4(b))
	}
}
