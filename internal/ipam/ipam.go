// Package ipam provides deterministic IPv4 address allocation for the
// synthetic Internet used by the reproduction: IXP peering LANs, IXP
// management LANs, per-AS infrastructure prefixes, and point-to-point
// link addresses. Allocations are sequential and collision-free within
// one Allocator, which makes generated worlds reproducible for a given
// seed and generation order.
package ipam

import (
	"fmt"
	"net/netip"
)

// Allocator hands out IPv4 prefixes from a root prefix, and individual
// addresses from previously allocated prefixes. The zero value is not
// usable; construct with New.
type Allocator struct {
	root netip.Prefix
	// next is the first address of the next unallocated block.
	next netip.Addr
	// cursors tracks the next free host address inside each allocated
	// prefix.
	cursors map[netip.Prefix]netip.Addr
}

// New returns an Allocator that carves blocks out of root. Root must be
// a valid IPv4 prefix.
func New(root netip.Prefix) (*Allocator, error) {
	if !root.IsValid() || !root.Addr().Is4() {
		return nil, fmt.Errorf("ipam: root %v is not a valid IPv4 prefix", root)
	}
	root = root.Masked()
	return &Allocator{
		root:    root,
		next:    root.Addr(),
		cursors: make(map[netip.Prefix]netip.Addr),
	}, nil
}

// MustNew is New, panicking on error; intended for package-level
// defaults with constant inputs.
func MustNew(root netip.Prefix) *Allocator {
	a, err := New(root)
	if err != nil {
		panic(err)
	}
	return a
}

// AllocPrefix carves the next /bits prefix from the root. It returns an
// error when bits is coarser than the root or when the root is
// exhausted.
func (a *Allocator) AllocPrefix(bits int) (netip.Prefix, error) {
	if bits < a.root.Bits() || bits > 32 {
		return netip.Prefix{}, fmt.Errorf("ipam: cannot allocate /%d from %v", bits, a.root)
	}
	// Align next up to a /bits boundary.
	start := alignUp(a.next, bits)
	p := netip.PrefixFrom(start, bits).Masked()
	if !a.root.Contains(start) || !a.root.Contains(lastAddr(p)) {
		return netip.Prefix{}, fmt.Errorf("ipam: root %v exhausted allocating /%d", a.root, bits)
	}
	a.next = nextAddrAfter(p)
	a.cursors[p] = p.Addr().Next() // skip network address
	return p, nil
}

// AllocAddr returns the next unused host address from a prefix
// previously returned by AllocPrefix on the same allocator.
func (a *Allocator) AllocAddr(p netip.Prefix) (netip.Addr, error) {
	cur, ok := a.cursors[p]
	if !ok {
		return netip.Addr{}, fmt.Errorf("ipam: prefix %v was not allocated here", p)
	}
	if !p.Contains(cur) || cur == lastAddr(p) {
		return netip.Addr{}, fmt.Errorf("ipam: prefix %v exhausted", p)
	}
	a.cursors[p] = cur.Next()
	return cur, nil
}

// alignUp rounds addr up to the next /bits block boundary.
func alignUp(addr netip.Addr, bits int) netip.Addr {
	u := addrToUint32(addr)
	size := uint32(1) << (32 - bits)
	if r := u % size; r != 0 {
		u += size - r
	}
	return uint32ToAddr(u)
}

// nextAddrAfter returns the first address after prefix p.
func nextAddrAfter(p netip.Prefix) netip.Addr {
	u := addrToUint32(p.Addr())
	size := uint32(1) << (32 - p.Bits())
	return uint32ToAddr(u + size)
}

// lastAddr returns the highest address inside p.
func lastAddr(p netip.Prefix) netip.Addr {
	u := addrToUint32(p.Addr())
	size := uint32(1) << (32 - p.Bits())
	return uint32ToAddr(u + size - 1)
}

func addrToUint32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func uint32ToAddr(u uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
}
