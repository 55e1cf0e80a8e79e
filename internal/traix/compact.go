package traix

import (
	"rpeer/internal/ident"
)

// This file holds the interned, columnar form of the detection
// products. Detection itself stays in the address/name domain — paths,
// the registry dataset and the prefix-to-AS map are ingestion-edge
// artefacts — but everything the inference pipeline consumes
// repeatedly is kept in ID space, so the hot loops above never hash an
// address or an IXP name again: private hops for the facility voting
// as the struct-of-arrays below, and crossings for the multi-IXP rules
// as the corpus's per-member (near interface, IXP) pair lists
// (Corpus.MemberPairs).

// PrivateTab is the columnar form of the corpus's static private hops
// (Corpus.CompactStaticInto).
type PrivateTab struct {
	A, B     []ident.IfaceID
	AAS, BAS []ident.MemberID
}

// Len returns the number of private hops.
func (t *PrivateTab) Len() int { return len(t.A) }
