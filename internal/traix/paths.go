package traix

import (
	"net/netip"

	"rpeer/internal/ip4"
	"rpeer/internal/netsim"
)

// Paths is a traceroute corpus in fixed-width columns: no per-path
// object and no pointer inside, so the garbage collector never scans
// it and a decoder fills it with one allocation per column. Addresses
// are IPv4 words (see internal/ip4), the whole detection plane being
// IPv4; the word 0 marks a hop that did not reply ("*" in traceroute
// output).
//
// Path i's hops are Hop[Off[i]:Off[i+1]] (with their RTTs at the same
// offsets). Off holds Len()+1 entries, or none for an empty corpus.
type Paths struct {
	// Src is each path's probe AS (0 when unknown).
	Src []netsim.ASN
	// Dst is each path's destination.
	Dst []uint32
	// Off delimits each path's hops.
	Off []int32
	// Hop is each hop's address, 0 for no reply.
	Hop []uint32
	// RTT is each hop's RTT from the traceroute source, in ms.
	RTT []float64
}

// Len returns the number of paths.
func (p *Paths) Len() int { return len(p.Src) }

// Hops returns path i's hop range within Hop and RTT, [lo, hi).
func (p *Paths) Hops(i int) (lo, hi int) { return int(p.Off[i]), int(p.Off[i+1]) }

// Add starts a new path from AS src towards dst; AddHop appends its
// hops.
func (p *Paths) Add(src netsim.ASN, dst netip.Addr) {
	if len(p.Off) == 0 {
		p.Off = append(p.Off, 0)
	}
	p.Src = append(p.Src, src)
	p.Dst = append(p.Dst, word(dst))
	p.Off = append(p.Off, p.Off[len(p.Off)-1])
}

// AddHop appends a hop to the path Add last started; the zero Addr
// records a hop that did not reply.
func (p *Paths) AddHop(ip netip.Addr, rttMs float64) {
	p.Hop = append(p.Hop, word(ip))
	p.RTT = append(p.RTT, rttMs)
	p.Off[len(p.Off)-1]++
}

// Append appends every path of q.
func (p *Paths) Append(q *Paths) {
	if q.Len() == 0 {
		return
	}
	if len(p.Off) == 0 {
		p.Off = append(p.Off, 0)
	}
	base := p.Off[len(p.Off)-1]
	p.Src = append(p.Src, q.Src...)
	p.Dst = append(p.Dst, q.Dst...)
	for _, o := range q.Off[1:] {
		p.Off = append(p.Off, base+o)
	}
	p.Hop = append(p.Hop, q.Hop...)
	p.RTT = append(p.RTT, q.RTT...)
}

// word converts a corpus address to its column word: 0 for the zero
// Addr, the IPv4 word otherwise. Every other address family is a
// caller bug: the corpus is IPv4 (decoders reject anything else before
// it reaches a column).
func word(a netip.Addr) uint32 {
	if !a.IsValid() {
		return 0
	}
	if !a.Is4() {
		panic("traix: non-IPv4 corpus address " + a.String())
	}
	return ip4.U32(a)
}
