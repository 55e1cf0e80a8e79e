package rpi

import (
	"bytes"
	"context"
	"encoding/hex"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"rpeer/internal/pingsim"
	"rpeer/internal/snapshot"
)

// compatDeltas is the fixed history behind the committed snapshot
// fixture: a churn delta (joins and leaves), a measured RTT override
// and a measurement revocation over the tiny world.
func compatDeltas(in Inputs) []Delta {
	ifaces := sortedIfaces(in)
	return []Delta{
		ChurnDelta(in, 0.01, 7),
		{Ping: map[netip.Addr]pingsim.IfaceAgg{ifaces[0]: {
			RTTMinMs: 12.5, BestVP: in.Ping.VPs[0], BestRoundsUp: true, AnyRounding: true,
		}}},
		{Ping: map[netip.Addr]pingsim.IfaceAgg{ifaces[1]: {RTTMinMs: math.NaN()}}},
	}
}

// compatFixture is a snapshot of the compatDeltas history at seq 3,
// written by the build before the persisted-row codecs were shared
// (snapshot columns ixp.name, iface.*, port.* and ping.*, membership
// rows in intern order). Later builds must keep restoring it.
const compatFixture = "testdata/snap-v1-tiny.rpisnap"

// TestEncodeDeltaBytesPinned pins the WAL record layout: a log written
// by any earlier build of this record version must replay unchanged.
func TestEncodeDeltaBytesPinned(t *testing.T) {
	vp := &pingsim.VP{ID: 7}
	d := Delta{
		Joins: []Join{
			{IXP: "AMS-IX", Iface: netip.MustParseAddr("185.1.2.3"), ASN: 64500, PortMbps: 10000},
			{IXP: "DE-CIX", Iface: netip.MustParseAddr("2001:7f8::1"), ASN: 64501},
		},
		Leaves: []Key{{IXP: "LINX", Iface: netip.MustParseAddr("195.66.224.9")}},
		Ping: map[netip.Addr]pingsim.IfaceAgg{
			netip.MustParseAddr("185.1.2.9"): {RTTMinMs: 3, BestVP: vp, AnyRounding: true},
			netip.MustParseAddr("185.1.2.4"): {RTTMinMs: 0.75, BestVP: vp, BestRoundsUp: true, AnyRounding: true},
			netip.MustParseAddr("185.1.2.5"): {RTTMinMs: math.NaN()},
		},
	}
	const want = "010200000004b9010203f4fb0000102700000600414d532d495810200107f800" +
		"0000000000000000000001f5fb000000000000060044452d4349580100000004c342" +
		"e00904004c494e580300000004b9010204000000000000e83f070000000304b90102" +
		"05010000000000f87fffffffff0004b9010209000000000000084007000000" + "02"
	b := encodeDelta(d)
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("encodeDelta bytes moved:\n got %s\nwant %s", got, want)
	}
	back, err := decodeDelta(b, func(id int) (*pingsim.VP, bool) { return vp, id == vp.ID })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeDelta(back), b) {
		t.Fatal("decoded record re-encodes to different bytes")
	}
}

// TestRestoreParentSnapshot restores a snapshot written by an earlier
// build (the compatDeltas history, checkpointed at seq 3): its columns
// must still decode, and the engine they restore must serve the bytes
// of a cold rebuild over the same history.
func TestRestoreParentSnapshot(t *testing.T) {
	in := tinyInputs(t)
	fixture, err := os.ReadFile(compatFixture)
	if err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Decode(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Col("ping.addr"); c == nil || c.Len() != 2 {
		t.Fatal("fixture should carry one measured override and one revocation")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(compatFixture)), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	// Published under its seq-derived name so recovery finds it.
	if err := os.Rename(filepath.Join(dir, filepath.Base(compatFixture)), filepath.Join(dir, snapshot.FileName(3))); err != nil {
		t.Fatal(err)
	}
	eng, info, err := Open(dir, in, WithLogger(quietLogger()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if info.Seq != 3 || info.SnapshotSeq != 3 || info.Replayed != 0 {
		t.Fatalf("recovery = %+v, want the seq-3 snapshot and no replay", info)
	}

	live, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for _, d := range compatDeltas(live.Inputs()) {
		if _, err := live.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := New(live.Inputs())
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	want := reportBytes(t, cold)
	if !bytes.Equal(reportBytes(t, live), want) {
		t.Fatal("live history diverges from its cold rebuild")
	}
	if !bytes.Equal(reportBytes(t, eng), want) {
		t.Fatal("engine restored from the committed snapshot diverges from a cold rebuild")
	}
}
