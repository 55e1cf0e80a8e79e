// Package core implements the paper's primary contribution: the
// five-step methodology for inferring whether each IXP member peers
// locally or remotely (Section 5), together with the RTT-threshold
// baseline of Castro et al. it is evaluated against, and the
// validation metrics of Table 3.
//
// The pipeline consumes only observable artefacts — the merged IXP
// registry dataset, the colocation database, ping-campaign minimum
// RTTs, the traceroute corpus and the alias probe campaign.
// Ground-truth membership kinds in the netsim world are touched
// exclusively by the validation helpers.
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

// Key identifies one membership: an interface address at an IXP.
type Key struct {
	IXP   string
	Iface netip.Addr
}

// String implements fmt.Stringer.
func (k Key) String() string { return fmt.Sprintf("%s/%s", k.IXP, k.Iface) }
