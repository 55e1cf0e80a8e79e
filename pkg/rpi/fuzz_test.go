package rpi

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"math"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"rpeer/internal/core"
	"rpeer/internal/pingsim"
)

// FuzzApplySequence drives generated delta sequences — churn joins and
// leaves, re-joins of departed interfaces (some under another AS), RTT
// overrides, measurement revocations and invalid deltas — through one
// engine over the tiny world. After every valid delta the engine's wire
// bytes must equal a cold New over its Inputs(), the report plane's
// full and per-IXP bytes must equal MarshalReport's, and the Update's
// change list must equal the map-based diff oracle below. An invalid
// delta must fail with ErrBadDelta and leave the bytes and sequence
// number untouched.
//
// Each op consumes three input bytes: the op kind, a size and a seed.
func FuzzApplySequence(f *testing.F) {
	in := tinyInputs(f)
	f.Fuzz(func(t *testing.T, prog []byte) {
		const maxOps = 6
		eng, err := New(in)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		var departed []Key // leaves a later op may re-join
		for op := 0; op < maxOps && len(prog) >= 3; op++ {
			kind, size, seed := prog[0], int(prog[1]), int64(prog[2])
			prog = prog[3:]
			cur := eng.Inputs()
			var d Delta
			valid := true
			switch kind % 5 {
			case 0: // churn: joins and leaves
				d = ChurnDelta(cur, 0.005+float64(size%8)*0.01, seed)
			case 1: // re-joins, every other one under a foreign AS
				d = rejoinDelta(cur, departed, size, seed)
				if d.Empty() {
					d = ChurnDelta(cur, 0.01, seed)
				}
			case 2: // measured RTT overrides
				d = Delta{Ping: overrides(cur, size, seed, false)}
			case 3: // measurement revocations
				d = Delta{Ping: overrides(cur, size, seed, true)}
			case 4: // an invalid delta, possibly riding on valid churn
				d, valid = invalidDelta(cur, size, seed), false
			}
			before, seqBefore := eng.Snapshot(), eng.Seq()
			wantBytes := wireBytes(t, before)
			leaves := append([]Key(nil), d.Leaves...)
			up, err := eng.Apply(context.Background(), d)
			if !valid {
				if !errors.Is(err, ErrBadDelta) {
					t.Fatalf("op %d: invalid delta: err = %v, want ErrBadDelta", op, err)
				}
				if eng.Seq() != seqBefore || !bytes.Equal(wireBytes(t, eng.Snapshot()), wantBytes) {
					t.Fatalf("op %d: rejected delta moved the engine", op)
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d (kind %d): %v", op, kind%5, err)
			}
			departed = append(departed, leaves...)
			after := eng.Snapshot()
			if want := mapDiffOracle(up.Seq, before, after); !reflect.DeepEqual(up.Changes, want.Changes) {
				t.Fatalf("op %d: merge diff has %d changes, map diff %d", op, len(up.Changes), len(want.Changes))
			}
			cold, err := New(eng.Inputs())
			if err != nil {
				t.Fatalf("op %d: cold rebuild: %v", op, err)
			}
			coldBytes := wireBytes(t, cold.Snapshot())
			cold.Close()
			if !bytes.Equal(wireBytes(t, after), coldBytes) {
				t.Fatalf("op %d (kind %d): incremental report diverged from cold rebuild", op, kind%5)
			}
			checkPlane(t, after, eng.IXPs())
		}
	})
}

func wireBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := MarshalReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rejoinDelta re-joins up to size+1 departed interfaces that are still
// absent, every other one under the AS of the first world member.
func rejoinDelta(in Inputs, departed []Key, size int, seed int64) Delta {
	var d Delta
	seen := map[netip.Addr]bool{}
	for k := int(seed) % (len(departed) + 1); k < len(departed) && len(d.Joins) <= size; k++ {
		key := departed[k]
		if _, present := in.Dataset.IfaceIXP[key.Iface]; present || seen[key.Iface] {
			continue
		}
		seen[key.Iface] = true
		asn := in.World.Members[(k*7+int(seed))%len(in.World.Members)].ASN
		if len(d.Joins)%2 == 0 {
			asn = in.World.Members[0].ASN
		}
		d.Joins = append(d.Joins, Join{IXP: key.IXP, Iface: key.Iface, ASN: asn})
	}
	return d
}

// overrides picks size+1 current member interfaces (sorted, strided by
// seed) and either revokes their measurement or sets a fresh one from
// a campaign vantage point.
func overrides(in Inputs, size int, seed int64, revoke bool) map[netip.Addr]pingsim.IfaceAgg {
	ifaces := sortedIfaces(in)
	out := make(map[netip.Addr]pingsim.IfaceAgg)
	vps := in.Ping.VPs
	for k := 0; k <= size%16 && len(ifaces) > 0; k++ {
		ip := ifaces[(int(seed)*31+k*97)%len(ifaces)]
		if revoke {
			out[ip] = pingsim.IfaceAgg{RTTMinMs: math.NaN()}
			continue
		}
		out[ip] = pingsim.IfaceAgg{
			RTTMinMs:     0.3 + float64((int(seed)+k*13)%400)/4,
			BestVP:       vps[(int(seed)+k)%len(vps)],
			BestRoundsUp: k%3 == 0,
		}
	}
	return out
}

// invalidDelta builds a delta Apply must refuse; half the kinds carry
// a valid churn batch alongside, which must not land either.
func invalidDelta(in Inputs, size int, seed int64) Delta {
	ifaces := sortedIfaces(in)
	known := ifaces[int(seed)%len(ifaces)]
	ixp := in.Dataset.IfaceIXP[known]
	var d Delta
	if size%2 == 1 {
		d = ChurnDelta(in, 0.01, seed)
	}
	switch size % 8 {
	case 0, 1: // leave under the wrong IXP name
		d.Leaves = append(d.Leaves, Key{IXP: ixp + "-not", Iface: known})
	case 2, 3: // join of an interface that is already a member
		d.Joins = append(d.Joins, Join{IXP: ixp, Iface: known, ASN: 64512})
	case 4: // join at an IXP the prefix plane does not know
		d.Joins = append(d.Joins, Join{IXP: "no-such-ixp", Iface: netip.MustParseAddr("198.51.100.7"), ASN: 64512})
	case 5: // join off every peering LAN
		d.Joins = append(d.Joins, Join{IXP: ixp, Iface: netip.MustParseAddr("192.0.2.1"), ASN: 64512})
	case 6: // a non-positive measured RTT
		d.Ping = map[netip.Addr]pingsim.IfaceAgg{known: {RTTMinMs: -1, BestVP: in.Ping.VPs[0]}}
	case 7: // the same leave twice
		d = Delta{Leaves: []Key{{IXP: ixp, Iface: known}, {IXP: ixp, Iface: known}}}
	}
	return d
}

func sortedIfaces(in Inputs) []netip.Addr {
	out := make([]netip.Addr, 0, len(in.Dataset.IfaceIXP))
	for ip := range in.Dataset.IfaceIXP {
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// mapDiffOracle is the verdict diff as the engine computed it before the
// merge-join: a walk of both report maps, then a sort of the changes by
// (IXP, interface string).
func mapDiffOracle(seq uint64, old, new *core.Report) *Update {
	up := &Update{Seq: seq}
	for k, o := range old.Inferences {
		n, ok := new.Inferences[k]
		if !ok {
			up.Changes = append(up.Changes, VerdictChange{
				IXP: k.IXP, Iface: k.Iface.String(),
				From: o.Class.String(), FromStep: stepName(o.Step),
				To: core.ClassUnknown.String(), Removed: true,
			})
			continue
		}
		if o.Class != n.Class || o.Step != n.Step {
			up.Changes = append(up.Changes, VerdictChange{
				IXP: k.IXP, Iface: k.Iface.String(),
				From: o.Class.String(), FromStep: stepName(o.Step),
				To: n.Class.String(), ToStep: stepName(n.Step),
			})
		}
	}
	for k, n := range new.Inferences {
		if _, ok := old.Inferences[k]; !ok {
			up.Changes = append(up.Changes, VerdictChange{
				IXP: k.IXP, Iface: k.Iface.String(),
				From: core.ClassUnknown.String(),
				To:   n.Class.String(), ToStep: stepName(n.Step),
				Added: true,
			})
		}
	}
	sort.Slice(up.Changes, func(i, j int) bool {
		if up.Changes[i].IXP != up.Changes[j].IXP {
			return up.Changes[i].IXP < up.Changes[j].IXP
		}
		return up.Changes[i].Iface < up.Changes[j].Iface
	})
	return up
}

// TestDiffFallsBackForHandBuiltReports pins the map fallback: reports
// assembled by hand (no domain-ordered array) diff exactly like
// engine-built ones.
func TestDiffFallsBackForHandBuiltReports(t *testing.T) {
	eng, err := New(tinyInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	before := eng.Snapshot()
	if _, err := eng.Apply(context.Background(), ChurnDelta(eng.Inputs(), 0.05, 3)); err != nil {
		t.Fatal(err)
	}
	after := eng.Snapshot()
	handBuilt := func(rep *Report) *Report {
		return &Report{Inferences: maps.Clone(rep.Inferences), MultiRouters: rep.MultiRouters}
	}
	want := mapDiffOracle(1, before, after)
	if len(want.Changes) == 0 {
		t.Fatal("delta moved no verdict; fallback test is vacuous")
	}
	for _, pair := range [][2]*Report{{before, after}, {handBuilt(before), after}, {before, handBuilt(after)}} {
		if got := diffReports(1, pair[0], pair[1]); !reflect.DeepEqual(got.Changes, want.Changes) {
			t.Fatalf("diff has %d changes, oracle %d", len(got.Changes), len(want.Changes))
		}
	}
}
