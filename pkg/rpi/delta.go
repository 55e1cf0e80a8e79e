package rpi

import (
	"math/rand"
	"net/netip"
	"sort"

	"rpeer/internal/core"
	"rpeer/internal/netsim"
)

// Delta is one batch of world changes for Engine.Apply: membership
// joins and leaves plus refreshed per-interface RTT aggregates.
type Delta = core.Delta

// Join is one membership appearing in the registry dataset.
type Join = core.Join

// ChurnDelta samples a membership-churn delta touching roughly frac of
// the current memberships (half leaves, half joins), deterministically
// in seed. It is the benchmark and load-test workload: a 1% churn is
// the paper's monthly reality at a large IXP.
func ChurnDelta(in Inputs, frac float64, seed int64) Delta {
	n := len(in.Dataset.IfaceIXP)
	k := int(frac * float64(n) / 2)
	if k < 1 {
		k = 1
	}
	return sampleDelta(in, k, k, seed)
}

// sampleDelta assembles nJoin joins and nLeave leaves against the
// current dataset state.
func sampleDelta(in Inputs, nJoin, nLeave int, seed int64) Delta {
	rng := rand.New(rand.NewSource(seed))
	ds := in.Dataset

	// Only memberships on exchanges the prefix plane knows can churn
	// round-trippably: a leave of an interface whose IXP lost its
	// prefix record to source noise could never re-join (joins are
	// validated against the prefix plane).
	ixpSet := make(map[string]bool)
	for _, name := range ds.PrefixIXP {
		ixpSet[name] = true
	}
	known := make([]netip.Addr, 0, len(ds.IfaceIXP))
	for ip, name := range ds.IfaceIXP {
		if ixpSet[name] {
			known = append(known, ip)
		}
	}
	sort.Slice(known, func(i, j int) bool { return known[i].Less(known[j]) })

	var d Delta
	taken := make(map[netip.Addr]bool)
	if nLeave > len(known) {
		nLeave = len(known)
	}
	for _, i := range rng.Perm(len(known))[:nLeave] {
		ip := known[i]
		taken[ip] = true
		d.Leaves = append(d.Leaves, Key{IXP: ds.IfaceIXP[ip], Iface: ip})
	}

	// Joiners: ground-truth members the registry noise hid...
	var hidden []*netsim.Member
	for _, m := range in.World.Members {
		if _, ok := ds.IfaceIXP[m.Iface]; ok {
			continue
		}
		if !ixpSet[in.World.IXP(m.IXP).Name] {
			continue
		}
		hidden = append(hidden, m)
	}
	sort.Slice(hidden, func(i, j int) bool { return hidden[i].Iface.Less(hidden[j].Iface) })
	for _, i := range rng.Perm(len(hidden)) {
		if len(d.Joins) >= nJoin {
			break
		}
		m := hidden[i]
		if taken[m.Iface] {
			continue
		}
		taken[m.Iface] = true
		j := Join{IXP: in.World.IXP(m.IXP).Name, Iface: m.Iface, ASN: m.ASN}
		if rng.Float64() < 0.8 {
			j.PortMbps = m.PortMbps
		}
		d.Joins = append(d.Joins, j)
	}
	// ... topped up with brand-new members on free LAN addresses,
	// walking each peering LAN from its top end (the generator
	// allocates from the bottom).
	if len(d.Joins) < nJoin {
		d.Joins = append(d.Joins, mintJoins(in, nJoin-len(d.Joins), taken, rng)...)
	}
	return d
}

// mintJoins fabricates n new memberships on unused peering-LAN
// addresses with fresh ASNs.
func mintJoins(in Inputs, n int, taken map[netip.Addr]bool, rng *rand.Rand) []Join {
	ds := in.Dataset
	used := make(map[netip.Addr]bool, len(in.World.Members))
	for _, m := range in.World.Members {
		used[m.Iface] = true
	}
	// Interfaces the dataset already knows are taken too — a member
	// minted by an earlier delta is not in the world's roster, and
	// re-minting its address would be an invalid duplicate join.
	for ip := range ds.IfaceIXP {
		used[ip] = true
	}
	var prefixes []netip.Prefix
	for p := range ds.PrefixIXP {
		if p.Addr().Is4() { // lastAddrIn walks IPv4 LANs only
			prefixes = append(prefixes, p)
		}
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Addr().Less(prefixes[j].Addr()) })

	var out []Join
	asn := netsim.ASN(900001 + rng.Intn(1000))
	for len(out) < n && len(prefixes) > 0 {
		minted := 0
		for _, p := range prefixes {
			ip := lastAddrIn(p)
			// Walk down from the top until a free address appears.
			for p.Contains(ip) {
				if !used[ip] && !taken[ip] {
					break
				}
				ip = ip.Prev()
			}
			if !p.Contains(ip) {
				continue
			}
			taken[ip] = true
			out = append(out, Join{IXP: ds.PrefixIXP[p], Iface: ip, ASN: asn, PortMbps: 1000})
			asn++
			minted++
			if len(out) >= n {
				break
			}
		}
		if minted == 0 {
			break // every LAN exhausted
		}
	}
	return out
}

// lastAddrIn returns the highest address of an IPv4 prefix.
func lastAddrIn(p netip.Prefix) netip.Addr {
	b := p.Addr().As4()
	bits := p.Bits()
	for i := 0; i < 32-bits; i++ {
		b[3-(i/8)] |= 1 << (i % 8)
	}
	return netip.AddrFrom4(b)
}

// InvertDelta builds the delta that undoes d against the pre-apply
// inputs: departed members re-join with their recorded AS, joined
// members leave. Port refreshes are not rolled back (real registries
// don't forget pricing rows either). Benchmarks alternate a delta with
// its inverse to apply churn indefinitely.
func InvertDelta(in Inputs, d Delta) Delta {
	ds := in.Dataset
	var inv Delta
	for _, k := range d.Leaves {
		inv.Joins = append(inv.Joins, Join{IXP: k.IXP, Iface: k.Iface, ASN: ds.IfaceASN[k.Iface]})
	}
	for _, j := range d.Joins {
		inv.Leaves = append(inv.Leaves, Key{IXP: j.IXP, Iface: j.Iface})
	}
	return inv
}
