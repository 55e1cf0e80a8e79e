package core

import (
	"fmt"
	"net/netip"
	"testing"

	"rpeer/internal/alias"
	"rpeer/internal/ident"
	"rpeer/internal/netsim"
)

var aliasModes = []alias.Mode{alias.ModePrecision, alias.ModeCoverage}

// TestPrivClusterMatchesFullResolution pins Step 5's closure argument:
// for every membership whose AS has private links, the alias set the
// search from the member interface over the AS's private-link
// interfaces stamps equals the set a full resolution of P ∪ {iface}
// puts the member interface in, in both alias modes.
func TestPrivClusterMatchesFullResolution(t *testing.T) {
	in, _, _ := fixtures(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	plane := ctx.aliasPlane()
	s := ctx.getScratch()
	defer ctx.putScratch(s)
	for _, mode := range aliasModes {
		checked, joined := 0, 0
		dom, _ := ctx.domainGroups()
		for _, e := range dom.rows {
			ns := ctx.priv.Of(e.member)
			if len(ns) == 0 {
				continue
			}
			mark := ctx.markPrivCluster(s, mode, ns, e.iface)

			set := []ident.IfaceID{e.iface}
			for _, n := range ns {
				set = append(set, n.Iface)
			}
			set = ctx.sortedSet(set)
			comp := plane.Resolve(mode, set)
			at := -1
			for j, id := range set {
				if id == e.iface {
					at = j
				}
			}
			size := 0
			for j, id := range set {
				want := comp[j] == comp[at]
				if got := s.ifaceMark[id] == mark; got != want {
					t.Fatalf("%v: membership %v: interface %v in derived set = %v, full resolution says %v",
						mode, ctx.ids.Addr(e.iface), ctx.ids.Addr(id), got, want)
				}
				if want {
					size++
				}
			}
			checked++
			if size > 1 {
				joined++
			}
		}
		if checked == 0 || joined == 0 {
			t.Fatalf("%v: %d memberships checked, %d with a non-singleton set; the fixture must exercise both", mode, checked, joined)
		}
	}
}

// TestAliasPlaneAcrossApply takes a context whose probe plane and
// alias memos are warm, applies joins that intern new interfaces and
// then a delta re-joining the departed interfaces (which get their old
// IDs back), and requires every run to equal a cold rebuild in
// both alias modes, with the plane covering every interned ID.
func TestAliasPlaneAcrossApply(t *testing.T) {
	in := deltaInputs(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	runBoth := func(label string) {
		t.Helper()
		for _, mode := range aliasModes {
			opt := DefaultOptions()
			opt.AliasMode = mode
			warm, err := ctx.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := coldContext(t, ctx.Inputs()).Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, fmt.Sprintf("%s/%v", label, mode), cold, warm)
		}
		if got, want := ctx.probes.Len(), ctx.ids.NumIfaces(); got != want {
			t.Fatalf("%s: plane covers %d slots of %d interned interfaces", label, got, want)
		}
	}
	runBoth("warm-up")
	built := ctx.probes.Len()

	d1 := churnDelta(t, in, 30, 30)
	seen := make(map[netip.Addr]bool)
	for _, j := range d1.Joins {
		seen[j.Iface] = true
	}
	d1.Joins = append(d1.Joins, mintJoins(in, 10, seen)...)
	left := make(map[netip.Addr]ident.IfaceID)
	owner := make(map[netip.Addr]netsim.ASN)
	for _, k := range d1.Leaves {
		id, _ := ctx.ids.Iface(k.Iface)
		left[k.Iface] = id
		owner[k.Iface] = in.Dataset.IfaceASN[k.Iface]
	}
	if err := ctx.Apply(d1); err != nil {
		t.Fatal(err)
	}
	runBoth("joins")
	if ctx.probes.Len() <= built {
		t.Fatalf("joins interned no new interface: plane stayed at %d slots", built)
	}

	// Re-join the departed interfaces, every other one under a
	// different AS: the re-joined ID then belongs to another member.
	var d2 Delta
	for i, k := range d1.Leaves {
		asn := owner[k.Iface]
		if i%2 == 1 {
			asn = in.World.Members[0].ASN
		}
		d2.Joins = append(d2.Joins, Join{IXP: k.IXP, Iface: k.Iface, ASN: asn})
	}
	for _, j := range d1.Joins[:10] {
		d2.Leaves = append(d2.Leaves, Key{IXP: j.IXP, Iface: j.Iface})
	}
	if err := ctx.Apply(d2); err != nil {
		t.Fatal(err)
	}
	for ip, id := range left {
		if got, _ := ctx.ids.Iface(ip); got != id {
			t.Fatalf("re-join of %v did not keep ID %d (got %d)", ip, id, got)
		}
	}
	runBoth("rejoin")
}
