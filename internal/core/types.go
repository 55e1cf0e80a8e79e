// Package core implements the paper's primary contribution: the
// five-step methodology for inferring whether each IXP member peers
// locally or remotely (Section 5), together with the RTT-threshold
// baseline of Castro et al. it is evaluated against, and the
// validation metrics of Table 3.
//
// The pipeline consumes only observable artefacts — the merged IXP
// registry dataset, the colocation database, ping-campaign minimum
// RTTs, the traceroute corpus and live alias probing. Ground-truth
// membership kinds in the netsim world are touched exclusively by the
// validation helpers.
//
// The one entry point is NewContext followed by the Context's Run /
// RunStep / Baseline methods. The context precomputes
// and memoizes everything that depends only on the inputs (RTT
// indexes, traceroute detections, facility geometry, alias clusters)
// and is safe for concurrent use. A context reused across many runs,
// and across the deltas Apply absorbs — where Run re-classifies only
// the members a delta dirtied and copies the rest from its last
// report — produces reports identical to a fresh context's over the
// same inputs (see DESIGN.md sections 4 and 8.2, and the determinism
// tests in context_test.go and delta_test.go).
package core

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"strings"

	"rpeer/internal/netsim"
)

// PeerClass is the inference outcome for one IXP membership.
type PeerClass uint8

const (
	// ClassUnknown: the methodology could not decide.
	ClassUnknown PeerClass = iota
	// ClassLocal: the member is physically present at the IXP fabric.
	ClassLocal
	// ClassRemote: the member peers remotely (Definition 1).
	ClassRemote
)

// String implements fmt.Stringer.
func (c PeerClass) String() string {
	switch c {
	case ClassLocal:
		return "local"
	case ClassRemote:
		return "remote"
	default:
		return "unknown"
	}
}

// Step identifies which part of the methodology produced an inference.
type Step uint8

const (
	// StepNone marks memberships without an inference.
	StepNone Step = iota
	// StepPortCapacity is Step 1: fractional ports imply resellers.
	StepPortCapacity
	// StepRTTColo is Steps 2+3: colocation-informed RTT interpretation.
	StepRTTColo
	// StepMultiIXP is Step 4: multi-IXP router propagation.
	StepMultiIXP
	// StepPrivate is Step 5: private-connectivity voting.
	StepPrivate
	// StepBaseline marks the Castro et al. RTT-threshold baseline.
	StepBaseline
)

// String implements fmt.Stringer.
func (s Step) String() string {
	switch s {
	case StepPortCapacity:
		return "port-capacity"
	case StepRTTColo:
		return "rtt+colo"
	case StepMultiIXP:
		return "multi-ixp"
	case StepPrivate:
		return "private-links"
	case StepBaseline:
		return "rtt-threshold"
	default:
		return "none"
	}
}

// Inference is the pipeline verdict for one member interface at one
// IXP.
type Inference struct {
	IXP   string
	Iface netip.Addr
	ASN   netsim.ASN
	Class PeerClass
	Step  Step
	// RTTMinMs is the campaign minimum RTT (NaN when unmeasured).
	RTTMinMs float64
	// FeasibleIXPFacilities is the number of IXP facilities inside the
	// feasible distance ring of Step 3 (-1 when Step 3 did not run).
	FeasibleIXPFacilities int
	// TraceRTT marks RTT minimums derived from traceroute paths
	// (Section 8 "Beyond Pings") instead of the ping campaign.
	TraceRTT bool
}

// HasRTT reports whether a usable RTT minimum was available.
func (inf *Inference) HasRTT() bool { return !math.IsNaN(inf.RTTMinMs) }

// RouterClass is the Fig 3 taxonomy of multi-IXP routers.
type RouterClass uint8

const (
	// RouterUnclassified: the rules could not type the router.
	RouterUnclassified RouterClass = iota
	// RouterLocal: local to all involved IXPs (Fig 3a).
	RouterLocal
	// RouterRemote: remote to all involved IXPs (Fig 3b).
	RouterRemote
	// RouterHybrid: local to some IXPs, remote to others (Fig 3c).
	RouterHybrid
)

// String implements fmt.Stringer.
func (c RouterClass) String() string {
	switch c {
	case RouterLocal:
		return "local"
	case RouterRemote:
		return "remote"
	case RouterHybrid:
		return "hybrid"
	default:
		return "unclassified"
	}
}

// MultiIXPRouter describes one alias-resolved router observed facing
// more than one IXP (Section 5.1.3).
type MultiIXPRouter struct {
	ASN netsim.ASN
	// Ifaces is the alias cluster.
	Ifaces []netip.Addr
	// IXPs lists the next-hop exchanges of the cluster.
	IXPs []string
	// Class is the Fig 3 classification.
	Class RouterClass
}

// Key identifies one membership in inference maps.
type Key struct {
	IXP   string
	Iface netip.Addr
}

// String implements fmt.Stringer.
func (k Key) String() string { return fmt.Sprintf("%s/%s", k.IXP, k.Iface) }

// Report is the pipeline output.
type Report struct {
	// Inferences maps each known membership to its verdict (always
	// populated, possibly with ClassUnknown).
	Inferences map[Key]*Inference
	// MultiRouters lists the classified multi-IXP routers (Fig 9d).
	MultiRouters []*MultiIXPRouter

	// aligned is the array backing Inferences in domain order — IXP
	// name, then interface address, ascending — for reports a Context
	// built; nil for hand-built and decoded ones. The map and the array
	// share their Inference values.
	aligned []Inference
	// gen is the context's delta generation the report reflects (see
	// Context.Run).
	gen uint64
}

// Rows returns the report's inferences in domain order: IXP name, then
// interface address. For a report a Context built it is the shared
// backing array and must be treated as read-only; for a hand-built or
// decoded one it is a sorted copy of the map.
func (r *Report) Rows() []Inference {
	if r.aligned != nil {
		return r.aligned
	}
	rows := make([]Inference, 0, len(r.Inferences))
	for k, inf := range r.Inferences {
		row := *inf
		row.IXP, row.Iface = k.IXP, k.Iface
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return compareMembership(&rows[i], &rows[j]) < 0 })
	return rows
}

// DiffVerdicts calls fn for every membership whose verdict (class or
// step) differs between old and new: o is nil for a membership only
// new has, n nil for one only old has. When both reports come from a
// Context the diff is one merge over their domain-ordered arrays, and
// fn sees the changes in (IXP, interface address) order; otherwise it
// walks the maps, in no particular order.
func DiffVerdicts(old, new *Report, fn func(k Key, o, n *Inference)) {
	if old.aligned == nil || new.aligned == nil {
		diffVerdictMaps(old, new, fn)
		return
	}
	a, b := old.aligned, new.aligned
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		c := 0
		switch {
		case i == len(a):
			c = 1
		case j == len(b):
			c = -1
		default:
			c = compareMembership(&a[i], &b[j])
		}
		switch {
		case c < 0:
			fn(Key{IXP: a[i].IXP, Iface: a[i].Iface}, &a[i], nil)
			i++
		case c > 0:
			fn(Key{IXP: b[j].IXP, Iface: b[j].Iface}, nil, &b[j])
			j++
		default:
			if a[i].Class != b[j].Class || a[i].Step != b[j].Step {
				fn(Key{IXP: b[j].IXP, Iface: b[j].Iface}, &a[i], &b[j])
			}
			i++
			j++
		}
	}
}

// compareMembership orders two inferences by (IXP name, interface
// address), the domain order.
func compareMembership(x, y *Inference) int {
	if x.IXP != y.IXP {
		return strings.Compare(x.IXP, y.IXP)
	}
	return x.Iface.Compare(y.Iface)
}

// diffVerdictMaps is DiffVerdicts over the report maps.
func diffVerdictMaps(old, new *Report, fn func(k Key, o, n *Inference)) {
	for k, o := range old.Inferences {
		n, ok := new.Inferences[k]
		if !ok {
			fn(k, o, nil)
		} else if o.Class != n.Class || o.Step != n.Step {
			fn(k, o, n)
		}
	}
	for k, n := range new.Inferences {
		if _, ok := old.Inferences[k]; !ok {
			fn(k, nil, n)
		}
	}
}

// StepShare returns, per IXP, the fraction of decided inferences made
// by each step (Fig 10a).
func (r *Report) StepShare() map[string]map[Step]float64 {
	counts := make(map[string]map[Step]int)
	totals := make(map[string]int)
	for _, inf := range r.Inferences {
		if inf.Class == ClassUnknown {
			continue
		}
		m := counts[inf.IXP]
		if m == nil {
			m = make(map[Step]int)
			counts[inf.IXP] = m
		}
		m[inf.Step]++
		totals[inf.IXP]++
	}
	out := make(map[string]map[Step]float64, len(counts))
	for ixp, m := range counts {
		fr := make(map[Step]float64, len(m))
		for s, n := range m {
			fr[s] = float64(n) / float64(totals[ixp])
		}
		out[ixp] = fr
	}
	return out
}
