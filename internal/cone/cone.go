// Package cone computes AS-relationship-derived customer cones, the
// CAIDA dataset analogue used by the paper's Fig 11a analysis of
// remote/local/hybrid member features, plus the PDB-style traffic
// bands of Fig 11b.
package cone

import (
	"sort"

	"rpeer/internal/netsim"
)

// Graph is the AS relationship graph: provider-to-customer edges
// derived from the world's transit relationships.
type Graph struct {
	// customers maps a provider ASN to its direct customers.
	customers map[netsim.ASN][]netsim.ASN
	// cones caches computed cone sizes.
	cones map[netsim.ASN]int
}

// Build derives the graph from the world.
func Build(w *netsim.World) *Graph {
	g := &Graph{
		customers: make(map[netsim.ASN][]netsim.ASN),
		cones:     make(map[netsim.ASN]int),
	}
	for _, asn := range w.ASNs {
		for _, p := range w.AS(asn).Providers {
			g.customers[p] = append(g.customers[p], asn)
		}
	}
	for p := range g.customers {
		sort.Slice(g.customers[p], func(i, j int) bool { return g.customers[p][i] < g.customers[p][j] })
	}
	return g
}

// ConeSize returns the size of the AS's customer cone: the number of
// ASes reachable by walking provider-to-customer edges, including the
// AS itself (CAIDA convention: a stub has cone size 1).
func (g *Graph) ConeSize(asn netsim.ASN) int {
	if n, ok := g.cones[asn]; ok {
		return n
	}
	seen := map[netsim.ASN]bool{asn: true}
	stack := []netsim.ASN{asn}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.customers[cur] {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	g.cones[asn] = len(seen)
	return len(seen)
}

// MemberClass is the Fig 11 taxonomy of IXP member networks.
type MemberClass uint8

const (
	// ClassLocalOnly: all the AS's IXP connections are local.
	ClassLocalOnly MemberClass = iota
	// ClassRemoteOnly: all connections are remote.
	ClassRemoteOnly
	// ClassHybrid: both kinds (in the same or different IXPs).
	ClassHybrid
)

// String implements fmt.Stringer.
func (c MemberClass) String() string {
	switch c {
	case ClassLocalOnly:
		return "local"
	case ClassRemoteOnly:
		return "remote"
	default:
		return "hybrid"
	}
}

// Classify buckets an AS by the remoteness verdicts of its memberships
// (true = remote). ok is false when the slice is empty.
func Classify(remotes []bool) (MemberClass, bool) {
	if len(remotes) == 0 {
		return ClassLocalOnly, false
	}
	any, all := false, true
	for _, r := range remotes {
		if r {
			any = true
		} else {
			all = false
		}
	}
	switch {
	case any && all:
		return ClassRemoteOnly, true
	case any:
		return ClassHybrid, true
	default:
		return ClassLocalOnly, true
	}
}
