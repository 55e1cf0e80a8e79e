// Package traix reimplements the traIXroute methodology (Nomikos &
// Dimitropoulos, PAM 2016; paper Section 3.3) for detecting IXP
// crossings in traceroute paths.
//
// A crossing is detected on an IP triplet (IP1, IP2, IP3) when:
//
//  1. IP2 belongs to an IXP peering-LAN prefix and is assigned to the
//     same AS as IP3 (the far member),
//  2. the AS of IP1 differs from that AS (the near member), and
//  3. both ASes are members of the IXP owning the prefix.
package traix

import (
	"net/netip"

	"rpeer/internal/ip4"
	"rpeer/internal/netsim"
	"rpeer/internal/registry"
)

// Crossing is one detected IXP crossing.
type Crossing struct {
	// Path is the crossing path's index in its corpus, and Index the
	// IXP interface hop's position within the path.
	Path, Index int
	// IXP is the merged-dataset name of the exchange.
	IXP string
	// NearIP precedes the IXP interface; it belongs to NearAS, the
	// member entering the exchange.
	NearIP netip.Addr
	NearAS netsim.ASN
	// IXPIP is the peering-LAN interface, owned by FarAS.
	IXPIP netip.Addr
	FarAS netsim.ASN
}

// Detector holds the datasets needed to interpret paths. Its per-IXP
// member sets are refcounted (one count per dataset interface record)
// and name-indexed — corpus candidates reference a set by dense int32
// index, not by string — and membership deltas adjust the counts
// incrementally through NoteJoin / NoteLeave instead of rebuilding the
// detector over the full dataset.
type Detector struct {
	ds    *registry.Dataset
	ipmap *registry.IPMap
	// names / byName assign dense indexes to IXP names; sets holds the
	// member AS -> interface-record refcounts per index.
	names  []string
	byName map[string]int32
	sets   []map[netsim.ASN]int

	// flips records the (set, AS) pairs whose refcount crossed zero
	// since a corpus last drained them (see flipKey) — the only rule-3
	// verdicts a membership delta can move. Recording starts when a
	// corpus settles against the detector (Corpus.Settle), so a
	// detector without a corpus never accumulates them.
	trackFlips bool
	flips      []uint64
}

// flipKey packs a (member-set index, AS) pair into the sort key of the
// corpus's rule-3 index: set in the high word, AS in the low word.
func flipKey(set int32, asn netsim.ASN) uint64 {
	return uint64(uint32(set))<<32 | uint64(asn)
}

// NewDetector builds a Detector over the merged IXP dataset and the
// IP-to-AS map.
func NewDetector(ds *registry.Dataset, ipmap *registry.IPMap) *Detector {
	d := &Detector{ds: ds, ipmap: ipmap, byName: make(map[string]int32)}
	for ip, name := range ds.IfaceIXP {
		idx := d.nameIndex(name) // hoisted: nameIndex may grow d.sets
		d.sets[idx][ds.IfaceASN[ip]]++
	}
	return d
}

// nameIndex returns the dense index of an IXP name, assigning one (and
// an empty member set) on first sight. Indexes are stable for the
// detector's lifetime, which is what lets a corpus cache them.
func (d *Detector) nameIndex(name string) int32 {
	if i, ok := d.byName[name]; ok {
		return i
	}
	i := int32(len(d.names))
	d.names = append(d.names, name)
	d.sets = append(d.sets, make(map[netsim.ASN]int))
	d.byName[name] = i
	return i
}

// NoteJoin records one interface record appearing at (ixp, asn). The
// caller updates the underlying dataset; the detector only maintains
// its member-set refcounts (O(1) per note, vs. NewDetector's full
// dataset scan).
func (d *Detector) NoteJoin(ixp string, asn netsim.ASN) {
	idx := d.nameIndex(ixp) // hoisted: nameIndex may grow d.sets
	set := d.sets[idx]
	set[asn]++
	if set[asn] == 1 && d.trackFlips {
		d.flips = append(d.flips, flipKey(idx, asn))
	}
}

// NoteLeave records one interface record departing from (ixp, asn).
func (d *Detector) NoteLeave(ixp string, asn netsim.ASN) {
	if i, ok := d.byName[ixp]; ok {
		set := d.sets[i]
		if set[asn] > 1 {
			set[asn]--
		} else if _, ok := set[asn]; ok {
			delete(set, asn)
			if d.trackFlips {
				d.flips = append(d.flips, flipKey(i, asn))
			}
		}
	}
}

// resolveTriplet applies rules 1 and 2 to the triplet centred on hop i
// of a path's hop words: the anchor must be a known IXP interface whose
// AS matches the next hop's and differs from the previous hop's. It
// returns the IXP's dense name index and the two ASes; rule 3 (both
// ASes members of the exchange) is the caller's to apply against
// current membership state.
func (d *Detector) resolveTriplet(hops []uint32, i int) (ixp int32, nearAS, farAS netsim.ASN, ok bool) {
	if hops[i] == 0 {
		return -1, 0, 0, false
	}
	ixpIP := ip4.Addr(hops[i])
	ixpName, known := d.ds.IfaceIXP[ixpIP]
	if !known {
		return -1, 0, 0, false // not a known IXP interface
	}
	far, known := d.ds.IfaceASN[ixpIP]
	if !known {
		return -1, 0, 0, false
	}
	// Rule 1 second half: the hop after the IXP IP must belong to
	// the same AS, when present and responsive.
	if i+1 >= len(hops) || hops[i+1] == 0 {
		// IXP IP as last hop, or unresponsive far hop: cannot confirm.
		return -1, 0, 0, false
	}
	if asn, known := d.asOf(ip4.Addr(hops[i+1])); !known || asn != far {
		return -1, 0, 0, false
	}
	// Rule 2: the preceding hop belongs to a different AS.
	if hops[i-1] == 0 {
		return -1, 0, 0, false
	}
	near, known := d.asOf(ip4.Addr(hops[i-1]))
	if !known || near == far {
		return -1, 0, 0, false
	}
	// Every dataset record's name was indexed at construction (or by
	// the NoteJoin that introduced it), so this is a read-only lookup —
	// resolveTriplet runs inside the corpus's parallel settle.
	idx, known := d.byName[ixpName]
	if !known {
		return -1, 0, 0, false
	}
	return idx, near, far, true
}

// asOf resolves an address to an AS: member interfaces on peering LANs
// resolve through the IXP dataset, everything else through the
// prefix-to-AS map.
func (d *Detector) asOf(ip netip.Addr) (netsim.ASN, bool) {
	if asn, ok := d.ds.IfaceASN[ip]; ok {
		return asn, true
	}
	return d.ipmap.ASOf(ip)
}

// Detect scans path pi of a corpus and returns its IXP crossings.
func (d *Detector) Detect(paths *Paths, pi int) []Crossing {
	var out []Crossing
	lo, hi := paths.Hops(pi)
	hops := paths.Hop[lo:hi]
	for i := 1; i < len(hops); i++ {
		idx, nearAS, farAS, ok := d.resolveTriplet(hops, i)
		if !ok {
			continue
		}
		// Rule 3: both ASes are members of the exchange.
		if set := d.sets[idx]; set[nearAS] == 0 || set[farAS] == 0 {
			continue
		}
		out = append(out, Crossing{
			Path: pi, Index: i, IXP: d.names[idx],
			NearIP: ip4.Addr(hops[i-1]), NearAS: nearAS,
			IXPIP: ip4.Addr(hops[i]), FarAS: farAS,
		})
	}
	return out
}

// DetectAll scans a corpus of paths.
func (d *Detector) DetectAll(paths *Paths) []Crossing {
	var out []Crossing
	for pi := 0; pi < paths.Len(); pi++ {
		out = append(out, d.Detect(paths, pi)...)
	}
	return out
}

// PrivateHop is a consecutive-hop pair traversing a private (non-IXP)
// interconnection between two different ASes (Step 5 input).
type PrivateHop struct {
	Path     int // index of the path in its corpus
	Index    int // index of the second hop
	AIP, BIP netip.Addr
	AAS, BAS netsim.ASN
}

// DetectPrivate extracts the private AS-level interconnections of path
// pi of a corpus: pairs of consecutive responsive hops in different
// ASes where neither address is on an IXP peering LAN.
func (d *Detector) DetectPrivate(paths *Paths, pi int) []PrivateHop {
	var out []PrivateHop
	lo, hi := paths.Hops(pi)
	hops := paths.Hop[lo:hi]
	for i := 1; i < len(hops); i++ {
		if hops[i-1] == 0 || hops[i] == 0 {
			continue
		}
		a, b := ip4.Addr(hops[i-1]), ip4.Addr(hops[i])
		if _, onIXP := d.ds.IfaceIXP[a]; onIXP {
			continue
		}
		if _, onIXP := d.ds.IfaceIXP[b]; onIXP {
			continue
		}
		aAS, okA := d.asOf(a)
		bAS, okB := d.asOf(b)
		if !okA || !okB || aAS == bAS {
			continue
		}
		out = append(out, PrivateHop{Path: pi, Index: i, AIP: a, BIP: b, AAS: aAS, BAS: bAS})
	}
	return out
}

// DetectPrivateAll extracts private interconnections from a corpus.
func (d *Detector) DetectPrivateAll(paths *Paths) []PrivateHop {
	var out []PrivateHop
	for pi := 0; pi < paths.Len(); pi++ {
		out = append(out, d.DetectPrivate(paths, pi)...)
	}
	return out
}
