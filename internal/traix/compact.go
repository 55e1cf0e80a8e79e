package traix

import (
	"rpeer/internal/ident"
)

// This file holds the interned, columnar form of the detection
// products. Detection itself stays in the address/name domain — paths,
// the registry dataset and the prefix-to-AS map are ingestion-edge
// artefacts — but everything the inference pipeline consumes
// repeatedly (crossings for the multi-IXP rules, private hops for the
// facility voting) is kept in ID-indexed struct-of-arrays, so the hot
// loops above never hash an address or an IXP name again.

// CrossingTab is the columnar view of the corpus's live crossings,
// reduced to the columns the multi-IXP observation index actually
// folds: the crossed IXP and the near-side interface and AS. The
// corpus refills it from its crossing plane (Corpus.Compact,
// Corpus.DetectDelta); the far side and the hop RTTs stay on the
// corpus, which materializes full rows only for the traceroute-RTT
// estimator (Corpus.Crossings).
type CrossingTab struct {
	IXP    []ident.IXPID
	Near   []ident.IfaceID
	NearAS []ident.MemberID
}

// Len returns the number of crossings.
func (t *CrossingTab) Len() int { return len(t.IXP) }

// PrivateTab is the columnar form of the corpus's static private hops
// (Corpus.CompactStaticInto).
type PrivateTab struct {
	A, B     []ident.IfaceID
	AAS, BAS []ident.MemberID
}

// Len returns the number of private hops.
func (t *PrivateTab) Len() int { return len(t.A) }
