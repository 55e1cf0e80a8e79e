package core

import (
	"math"
	"net/netip"
	"testing"

	"rpeer/internal/pingsim"
	"rpeer/internal/snapshot"
)

// TestPersistRoundTrip is the dump/restore contract behind crash
// recovery: columns dumped from a churned context, pushed through the
// snapshot wire format, and restored over the pristine base inputs
// must yield a cold report byte-identical to the live context's.
func TestPersistRoundTrip(t *testing.T) {
	in := deltaInputs(t)
	base := in
	base.Dataset = in.Dataset.Clone() // pristine copy; ctx mutates in's

	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	d := churnDelta(t, in, 30, 30)
	pcfg := pingsim.DefaultCampaign()
	pcfg.Seed = 4321
	d.Ping = pingsim.Overrides(pingsim.Run(in.World, in.Ping.VPs, pcfg, 1))
	// Include a measurement revocation so the no-VP/NaN path
	// round-trips too.
	for ip := range d.Ping {
		d.Ping[ip] = pingsim.IfaceAgg{RTTMinMs: math.NaN()}
		break
	}
	if err := ctx.Apply(d); err != nil {
		t.Fatal(err)
	}
	// A second, stacked delta: the dump must capture cumulative state.
	if err := ctx.Apply(churnDelta(t, ctx.Inputs(), 10, 10)); err != nil {
		t.Fatal(err)
	}

	snap := ctx.DumpColumns()
	snap.Seq = 2
	snap.Fingerprint = Fingerprint(base)

	// Same history, same bytes: the dump order is pinned by intern-ID
	// and natural-key order, not map iteration.
	again := ctx.DumpColumns()
	again.Seq, again.Fingerprint = snap.Seq, snap.Fingerprint
	if string(snap.Encode()) != string(again.Encode()) {
		t.Fatal("DumpColumns is not deterministic")
	}

	decoded, err := snapshot.Decode(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreInputs(base, decoded)
	if err != nil {
		t.Fatal(err)
	}

	warm, err := ctx.Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldContext(t, restored).Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "dump-restore", cold, warm)
}

// TestRestoreInputsValidation exercises the referential-integrity
// checks: a structurally valid snapshot referencing entities the base
// lacks must be rejected, not half-applied.
func TestRestoreInputsValidation(t *testing.T) {
	in := deltaInputs(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Apply(churnDelta(t, in, 5, 5)); err != nil {
		t.Fatal(err)
	}
	// One measured override so the ping columns are populated.
	for ip := range in.Dataset.IfaceIXP {
		d := Delta{Ping: map[netip.Addr]pingsim.IfaceAgg{
			ip: {RTTMinMs: 0.7, BestVP: in.Ping.VPs[0]},
		}}
		if err := ctx.Apply(d); err != nil {
			t.Fatal(err)
		}
		break
	}

	mutate := func(f func(s *snapshot.Snap)) error {
		s := ctx.DumpColumns()
		f(s)
		_, err := RestoreInputs(in, s)
		return err
	}
	if err := mutate(func(s *snapshot.Snap) {}); err != nil {
		t.Fatalf("unmutated dump must restore: %v", err)
	}
	cases := map[string]func(s *snapshot.Snap){
		"missing column": func(s *snapshot.Snap) {
			s.Columns = s.Columns[1:]
		},
		"iface ixp index out of range": func(s *snapshot.Snap) {
			c := s.Col("iface.ixp")
			if len(c.U32) == 0 {
				t.Fatal("no membership rows")
			}
			c.U32[0] = 1 << 30
		},
		"ragged column group": func(s *snapshot.Snap) {
			c := s.Col("iface.asn")
			c.U32 = c.U32[:len(c.U32)-1]
		},
		"unknown vantage point": func(s *snapshot.Snap) {
			c := s.Col("ping.vp")
			if len(c.U32) == 0 {
				t.Fatal("no ping rows")
			}
			c.U32[0] = 123456789
		},
		"measured override without vantage point": func(s *snapshot.Snap) {
			s.Col("ping.vp").U32[0] = ^uint32(0) // the no-VP sentinel
		},
	}
	for name, f := range cases {
		if err := mutate(f); err == nil {
			t.Errorf("%s: restore succeeded, want error", name)
		}
	}
}

func TestFingerprint(t *testing.T) {
	in := deltaInputs(t)
	if Fingerprint(in) != Fingerprint(in) {
		t.Fatal("fingerprint is not deterministic")
	}
	other := in
	other.Seed = in.Seed + 1
	if Fingerprint(other) == Fingerprint(in) {
		t.Fatal("seed change did not move the fingerprint")
	}
}
