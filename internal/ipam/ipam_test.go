package ipam

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(netip.Prefix{}); err == nil {
		t.Error("want error for zero prefix")
	}
	v6 := netip.MustParsePrefix("2001:db8::/32")
	if _, err := New(v6); err == nil {
		t.Error("want error for IPv6 root")
	}
}

func TestAllocPrefixSequential(t *testing.T) {
	a, err := New(mustPrefix(t, "10.0.0.0/8"))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := a.AllocPrefix(22)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := a.AllocPrefix(22)
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() != "10.0.0.0/22" {
		t.Errorf("first prefix = %v, want 10.0.0.0/22", p1)
	}
	if p2.String() != "10.0.4.0/22" {
		t.Errorf("second prefix = %v, want 10.0.4.0/22", p2)
	}
	if p1.Overlaps(p2) {
		t.Error("allocated prefixes overlap")
	}
}

func TestAllocPrefixMixedSizesNoOverlap(t *testing.T) {
	a := MustNew(mustPrefix(t, "10.0.0.0/8"))
	var ps []netip.Prefix
	for _, bits := range []int{24, 30, 22, 28, 24, 16, 30} {
		p, err := a.AllocPrefix(bits)
		if err != nil {
			t.Fatalf("alloc /%d: %v", bits, err)
		}
		ps = append(ps, p)
	}
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if ps[i].Overlaps(ps[j]) {
				t.Errorf("prefixes overlap: %v and %v", ps[i], ps[j])
			}
		}
	}
}

func TestAllocPrefixExhaustion(t *testing.T) {
	a := MustNew(mustPrefix(t, "192.168.0.0/24"))
	if _, err := a.AllocPrefix(25); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocPrefix(25); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocPrefix(25); err == nil {
		t.Error("want exhaustion error on third /25 from a /24")
	}
	if _, err := a.AllocPrefix(8); err == nil {
		t.Error("want error allocating /8 from /24 root")
	}
}

func TestAllocAddr(t *testing.T) {
	a := MustNew(mustPrefix(t, "10.0.0.0/8"))
	p, err := a.AllocPrefix(30)
	if err != nil {
		t.Fatal(err)
	}
	ip1, err := a.AllocAddr(p)
	if err != nil {
		t.Fatal(err)
	}
	ip2, err := a.AllocAddr(p)
	if err != nil {
		t.Fatal(err)
	}
	if ip1 == ip2 {
		t.Error("duplicate addresses allocated")
	}
	if !p.Contains(ip1) || !p.Contains(ip2) {
		t.Errorf("addresses %v, %v outside prefix %v", ip1, ip2, p)
	}
	if ip1 == p.Addr() {
		t.Error("network address must be skipped")
	}
	// A /30 has 2 usable hosts (network and broadcast excluded).
	if _, err := a.AllocAddr(p); err == nil {
		t.Error("want exhaustion after 2 hosts in a /30")
	}
}

func TestAllocAddrUnknownPrefix(t *testing.T) {
	a := MustNew(mustPrefix(t, "10.0.0.0/8"))
	if _, err := a.AllocAddr(mustPrefix(t, "172.16.0.0/24")); err == nil {
		t.Error("want error for foreign prefix")
	}
}

func TestUniqueAddressesProperty(t *testing.T) {
	f := func(n uint8) bool {
		a := MustNew(netip.MustParsePrefix("10.0.0.0/8"))
		p, err := a.AllocPrefix(20)
		if err != nil {
			return false
		}
		seen := make(map[netip.Addr]bool)
		for i := 0; i < int(n); i++ {
			ip, err := a.AllocAddr(p)
			if err != nil {
				return false
			}
			if seen[ip] {
				return false
			}
			seen[ip] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		a := MustNew(netip.MustParsePrefix("100.64.0.0/10"))
		var out []string
		for i := 0; i < 5; i++ {
			p, err := a.AllocPrefix(24)
			if err != nil {
				t.Fatal(err)
			}
			ip, err := a.AllocAddr(p)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p.String(), ip.String())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("allocation not deterministic at %d: %s vs %s", i, a[i], b[i])
		}
	}
}
