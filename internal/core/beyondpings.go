package core

import (
	"math"
	"net/netip"
	"sort"

	"rpeer/internal/traix"
)

// This file implements the "Beyond Pings" extension sketched in the
// paper's Section 8: minimum RTTs derived from traceroute paths rather
// than from VPs inside the IXP. The RTT difference between the two
// consecutive interfaces of an IXP crossing approximates the delay
// between the near member's router and the far member's peering
// interface; taking the minimum difference over many crossings (whose
// near members are mostly routers patched into the IXP fabric) yields
// an estimate of the IXP-to-member delay that covers IXPs without any
// usable looking glass or Atlas probe.
//
// The estimator inherits traceroute's artefacts — asymmetric reverse
// paths, load balancing, per-hop jitter — so it is gated behind
// Options.UseTracerouteRTT and only ever fills interfaces the ping
// campaign could not measure.

// TraceRTTEstimate is one traceroute-derived minimum RTT.
type TraceRTTEstimate struct {
	Iface netip.Addr
	IXP   string
	// RTTMs is the minimum consecutive-hop difference observed.
	RTTMs float64
	// Samples is the number of crossings that contributed.
	Samples int
}

// DeriveTracerouteRTT extracts per-interface delay estimates from the
// IXP crossings of a traceroute corpus, reading the crossing hops'
// RTTs from the corpus columns. Negative or zero differences
// (reverse-path artefacts) are discarded; the per-interface minimum
// over the remaining samples plays the role of RTTmin.
func DeriveTracerouteRTT(paths *traix.Paths, crossings []traix.Crossing) []TraceRTTEstimate {
	type acc struct {
		min     float64
		ixp     string
		samples int
	}
	accs := make(map[netip.Addr]*acc)
	for _, c := range crossings {
		lo, hi := paths.Hops(c.Path)
		if c.Index == 0 || c.Index >= hi-lo {
			continue
		}
		delta := paths.RTT[lo+c.Index] - paths.RTT[lo+c.Index-1]
		if delta <= 0 || math.IsNaN(delta) {
			continue
		}
		a := accs[c.IXPIP]
		if a == nil {
			a = &acc{min: math.Inf(1), ixp: c.IXP}
			accs[c.IXPIP] = a
		}
		a.samples++
		if delta < a.min {
			a.min = delta
		}
	}
	out := make([]TraceRTTEstimate, 0, len(accs))
	for ip, a := range accs {
		out = append(out, TraceRTTEstimate{Iface: ip, IXP: a.ixp, RTTMs: a.min, Samples: a.samples})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Iface.Less(out[j].Iface) })
	return out
}

// The augmentation itself lives on Context.traceAugmented: the
// traceroute-derived RTT view (estimates for interfaces the ping
// campaign did not cover, anchored at a pseudo vantage point in the
// IXP's primary facility) is built once per context and shared by
// every run with Options.UseTracerouteRTT.

// TraceDerived reports how many interfaces of the last Run were
// classified using traceroute-derived rather than ping RTTs.
func (r *Report) TraceDerived() int {
	v := r.cols()
	n := 0
	for i := range v.class {
		if v.trace.Get(uint32(i)) {
			n++
		}
	}
	return n
}
