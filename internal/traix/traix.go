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

	"rpeer/internal/netsim"
	"rpeer/internal/registry"
)

// Hop is one traceroute hop. A zero IP marks a non-responding hop
// ("*" in traceroute output).
type Hop struct {
	IP netip.Addr
	// RTTMs is the RTT from the traceroute source to this hop.
	RTTMs float64
}

// Path is one traceroute measurement.
type Path struct {
	// SrcASN is the AS hosting the probe (0 when unknown).
	SrcASN netsim.ASN
	Dst    netip.Addr
	Hops   []Hop
}

// Crossing is one detected IXP crossing.
type Crossing struct {
	Path *Path
	// Index of the IXP interface hop within Path.Hops.
	Index int
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
// of p: the anchor must be a known IXP interface whose AS matches the
// next hop's and differs from the previous hop's. It returns the IXP's
// dense name index and the two ASes; rule 3 (both ASes members of the
// exchange) is the caller's to apply against current membership state.
func (d *Detector) resolveTriplet(p *Path, i int) (ixp int32, nearAS, farAS netsim.ASN, ok bool) {
	ixpIP := p.Hops[i].IP
	if !ixpIP.IsValid() {
		return -1, 0, 0, false
	}
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
	if i+1 >= len(p.Hops) || !p.Hops[i+1].IP.IsValid() {
		// IXP IP as last hop, or unresponsive far hop: cannot confirm.
		return -1, 0, 0, false
	}
	if asn, known := d.asOf(p.Hops[i+1].IP); !known || asn != far {
		return -1, 0, 0, false
	}
	// Rule 2: the preceding hop belongs to a different AS.
	nearIP := p.Hops[i-1].IP
	if !nearIP.IsValid() {
		return -1, 0, 0, false
	}
	near, known := d.asOf(nearIP)
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

// Detect scans one path and returns its IXP crossings.
func (d *Detector) Detect(p *Path) []Crossing {
	var out []Crossing
	for i := 1; i < len(p.Hops); i++ {
		if c, ok := d.crossingAt(p, i); ok {
			out = append(out, c)
		}
	}
	return out
}

// crossingAt applies the crossing rules to the triplet centred on hop
// i (which must be >= 1).
func (d *Detector) crossingAt(p *Path, i int) (Crossing, bool) {
	idx, nearAS, farAS, ok := d.resolveTriplet(p, i)
	if !ok {
		return Crossing{}, false
	}
	// Rule 3: both ASes are members of the exchange.
	set := d.sets[idx]
	if set[nearAS] == 0 || set[farAS] == 0 {
		return Crossing{}, false
	}
	return Crossing{
		Path: p, Index: i, IXP: d.names[idx],
		NearIP: p.Hops[i-1].IP, NearAS: nearAS,
		IXPIP: p.Hops[i].IP, FarAS: farAS,
	}, true
}

// DetectAll scans a corpus of paths.
func (d *Detector) DetectAll(paths []*Path) []Crossing {
	var out []Crossing
	for _, p := range paths {
		out = append(out, d.Detect(p)...)
	}
	return out
}

// PrivateHop is a consecutive-hop pair traversing a private (non-IXP)
// interconnection between two different ASes (Step 5 input).
type PrivateHop struct {
	Path     *Path
	Index    int // index of the second hop
	AIP, BIP netip.Addr
	AAS, BAS netsim.ASN
}

// DetectPrivate extracts private AS-level interconnections: pairs of
// consecutive responsive hops in different ASes where neither address
// is on an IXP peering LAN.
func (d *Detector) DetectPrivate(p *Path) []PrivateHop {
	var out []PrivateHop
	for i := 1; i < len(p.Hops); i++ {
		if ph, ok := d.privateAt(p, i); ok {
			out = append(out, ph)
		}
	}
	return out
}

// privateAt applies the private-interconnection rules to the pair
// ending at hop i (which must be >= 1).
func (d *Detector) privateAt(p *Path, i int) (PrivateHop, bool) {
	a, b := p.Hops[i-1].IP, p.Hops[i].IP
	if !a.IsValid() || !b.IsValid() {
		return PrivateHop{}, false
	}
	if _, onIXP := d.ds.IfaceIXP[a]; onIXP {
		return PrivateHop{}, false
	}
	if _, onIXP := d.ds.IfaceIXP[b]; onIXP {
		return PrivateHop{}, false
	}
	aAS, okA := d.asOf(a)
	bAS, okB := d.asOf(b)
	if !okA || !okB || aAS == bAS {
		return PrivateHop{}, false
	}
	return PrivateHop{Path: p, Index: i, AIP: a, BIP: b, AAS: aAS, BAS: bAS}, true
}

// DetectPrivateAll extracts private interconnections from a corpus.
func (d *Detector) DetectPrivateAll(paths []*Path) []PrivateHop {
	var out []PrivateHop
	for _, p := range paths {
		out = append(out, d.DetectPrivate(p)...)
	}
	return out
}
