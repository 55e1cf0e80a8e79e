package registry

import (
	"net/netip"
	"sort"

	"rpeer/internal/ip4"
	"rpeer/internal/netsim"
)

// IPMap performs longest-prefix IP-to-AS mapping, the analogue of the
// CAIDA Routeviews prefix2as dataset the paper uses for traceroute
// interpretation (Section 5.2, Step 5). Entries are columnar over the
// IPv4 integer domain: a lookup reads an index on the address's /16,
// then binary-searches that /16's run of a []uint32, with no netip
// comparisons on the hot path.
type IPMap struct {
	base []uint32 // masked prefix base addresses, ascending
	last []uint32 // inclusive last address per prefix
	asn  []netsim.ASN
	// start indexes the /16s from the first entry's to the last's:
	// start[k] is the first entry whose base is in /16 number first16+k
	// or above, so that /16's entries are start[k] to start[k+1].
	first16 uint32
	start   []uint32
}

// BuildIPMap compiles the map from the world's per-AS infrastructure
// prefixes. IXP peering LANs are deliberately not included: those
// addresses belong to the IXP's address space, not to member ASes.
func BuildIPMap(w *netsim.World) *IPMap {
	m := &IPMap{}
	for _, asn := range w.ASNs {
		for _, p := range w.ASPrefixes(asn) {
			base := ip4.U32(p.Masked().Addr())
			size := uint32(1) << (32 - p.Bits())
			m.base = append(m.base, base)
			m.last = append(m.last, base+size-1)
			m.asn = append(m.asn, asn)
		}
	}
	order := make([]int, len(m.base))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return m.base[order[i]] < m.base[order[j]] })
	base := make([]uint32, len(order))
	last := make([]uint32, len(order))
	asns := make([]netsim.ASN, len(order))
	for i, o := range order {
		base[i], last[i], asns[i] = m.base[o], m.last[o], m.asn[o]
	}
	m.base, m.last, m.asn = base, last, asns
	if n := len(base); n > 0 {
		m.first16 = base[0] >> 16
		m.start = make([]uint32, base[n-1]>>16-m.first16+2)
		j := 0
		for k := range m.start {
			for j < n && base[j]>>16 < m.first16+uint32(k) {
				j++
			}
			m.start[k] = uint32(j)
		}
	}
	return m
}

// ASOf returns the AS originating the longest matching prefix for ip.
func (m *IPMap) ASOf(ip netip.Addr) (netsim.ASN, bool) {
	if !ip.Is4() {
		return 0, false
	}
	u := ip4.U32(ip)
	// The world's infrastructure prefixes never overlap, so the last
	// entry whose base is <= u decides. Every entry before u's /16 has
	// a base below u and every entry after it one above, so the search
	// runs inside the /16's entries and falls back to the entry before
	// them.
	k := int(u>>16) - int(m.first16)
	if k < 0 {
		return 0, false // below every base
	}
	lo, hi := len(m.base), len(m.base) // past the last /16: the last entry decides
	if k+1 < len(m.start) {
		lo, hi = int(m.start[k]), int(m.start[k+1])
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.base[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && u <= m.last[lo-1] {
		return m.asn[lo-1], true
	}
	return 0, false
}

// Len returns the number of mapped prefixes.
func (m *IPMap) Len() int { return len(m.base) }
