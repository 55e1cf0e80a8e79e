package ident

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"rpeer/internal/netsim"
)

// TestIfaceRoundTripOverGeneratedWorlds interns every member interface
// of generated worlds and checks the Addr <-> IfaceID round-trip, ID
// density and idempotence.
func TestIfaceRoundTripOverGeneratedWorlds(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		cfg := netsim.TinyConfig()
		cfg.Seed = seed
		w, err := netsim.Generate(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		tab := NewTable(len(w.Members), len(w.ASNs), len(w.Facilities))
		want := make(map[netip.Addr]IfaceID)
		for _, m := range w.Members {
			id := tab.AddIface(m.Iface)
			if prev, ok := want[m.Iface]; ok && prev != id {
				t.Fatalf("seed %d: re-interning %s moved %d -> %d", seed, m.Iface, prev, id)
			}
			want[m.Iface] = id
		}
		if tab.NumIfaces() != len(want) {
			t.Fatalf("seed %d: %d distinct addresses interned into %d IDs", seed, len(want), tab.NumIfaces())
		}
		for ip, id := range want {
			got, ok := tab.Iface(ip)
			if !ok || got != id {
				t.Fatalf("seed %d: Iface(%s) = (%v,%v), want (%v,true)", seed, ip, got, ok, id)
			}
			if back := tab.Addr(id); back != ip {
				t.Fatalf("seed %d: Addr(%v) = %s, want %s", seed, id, back, ip)
			}
		}
	}
}

// TestTableRoundTripProperty drives a randomized add/re-add/lookup
// sequence and checks the invariants the columnar substrate depends
// on: IDs are dense, stable across deltas (a re-added address gets its
// old ID back and a known address keeps resolving to it), and
// name/ASN/facility round-trips hold.
func TestTableRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tab := NewTable(0, 0, 0)

	names := make([]string, 40)
	for i := range names {
		names[i] = fmt.Sprintf("IXP-%03d", i)
	}
	tab.SetIXPs(names)
	for i, n := range names {
		id, ok := tab.IXP(n)
		if !ok || id != IXPID(i) {
			t.Fatalf("IXP(%q) = (%v,%v), want (%d,true)", n, id, ok, i)
		}
		if tab.IXPName(id) != n {
			t.Fatalf("IXPName(%v) = %q, want %q", id, tab.IXPName(id), n)
		}
	}

	assigned := make(map[netip.Addr]IfaceID)
	addrAt := func(i int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
	}
	for step := 0; step < 5000; step++ {
		i := rng.Intn(2000)
		ip := addrAt(i)
		switch rng.Intn(3) {
		case 0: // intern (or re-add)
			id := tab.AddIface(ip)
			if prev, ok := assigned[ip]; ok && prev != id {
				t.Fatalf("step %d: %s moved %d -> %d", step, ip, prev, id)
			}
			assigned[ip] = id
		case 1: // lookup
			if id, ok := assigned[ip]; ok {
				if got, ok := tab.Iface(ip); !ok || got != id {
					t.Fatalf("step %d: %s no longer resolves to %v", step, ip, id)
				}
			}
		case 2: // member round-trip
			asn := netsim.ASN(64500 + rng.Intn(500))
			m := tab.AddMember(asn)
			if tab.ASN(m) != asn {
				t.Fatalf("step %d: ASN(Member(%v)) = %v", step, asn, tab.ASN(m))
			}
			if again := tab.AddMember(asn); again != m {
				t.Fatalf("step %d: member %v moved %v -> %v", step, asn, m, again)
			}
		}
	}
	// Density: every ID below NumIfaces resolves back to an address
	// that resolves to it.
	if tab.NumIfaces() != len(assigned) {
		t.Fatalf("%d addresses, %d IDs", len(assigned), tab.NumIfaces())
	}
	for i := 0; i < tab.NumIfaces(); i++ {
		ip := tab.Addr(IfaceID(i))
		if id, ok := tab.Iface(ip); !ok || id != IfaceID(i) {
			t.Fatalf("ID %d: Addr/Iface round-trip broken (%v, %v)", i, id, ok)
		}
	}

	// Facility round-trip.
	for i := 0; i < 100; i++ {
		f := netsim.FacilityID(rng.Intn(50))
		id := tab.AddFac(f)
		if tab.FacilityID(id) != f {
			t.Fatalf("FacilityID(AddFac(%v)) = %v", f, tab.FacilityID(id))
		}
	}
}

// TestBits exercises the bitset across word boundaries and the
// capacity-reusing copy.
func TestBits(t *testing.T) {
	var b Bits
	for _, i := range []uint32{0, 1, 63, 64, 65, 127, 128, 1000} {
		if b.Get(i) {
			t.Fatalf("bit %d set in empty set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	b.Clear(64)
	if b.Get(64) || !b.Get(63) || !b.Get(65) {
		t.Fatal("Clear(64) disturbed neighbours")
	}
	var c Bits
	c.Set(5000) // larger than b; CopyFrom must shrink
	c.CopyFrom(&b)
	for _, i := range []uint32{0, 1, 63, 65, 127, 128, 1000} {
		if !c.Get(i) {
			t.Fatalf("copy lost bit %d", i)
		}
	}
	if c.Get(64) || c.Get(5000) {
		t.Fatal("copy carried stale bits")
	}
	b.Reset()
	if b.Get(0) || b.Get(1000) {
		t.Fatal("Reset left bits behind")
	}
}
