// Package registry models the IXP-related data sources the paper
// combines (Section 3.2): IXP websites (Euro-IX style machine-readable
// exports), Hurricane Electric, PeeringDB and Packet Clearing House,
// plus the PDB/Inflect colocation-facility database (Section 3.4).
//
// Each source is a noisy, incomplete projection of the ground truth in
// a netsim.World; Merge resolves conflicts with the paper's preference
// ordering (Websites > HE > PDB > PCH) and reports the per-source
// contribution and conflict statistics of Table 1.
package registry

import (
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"sort"

	"rpeer/internal/netsim"
	"rpeer/internal/par"
	"rpeer/internal/rng"
)

// Source identifies an IXP data source.
type Source int

// Sources in decreasing trust order (the paper's conflict-resolution
// preference).
const (
	SrcWebsite Source = iota
	SrcHE
	SrcPDB
	SrcPCH
	numSources
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SrcWebsite:
		return "Websites"
	case SrcHE:
		return "HE"
	case SrcPDB:
		return "PDB"
	case SrcPCH:
		return "PCH"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// PrefixRecord maps an IXP peering-LAN prefix to an IXP name.
type PrefixRecord struct {
	Prefix netip.Prefix
	IXP    string
}

// InterfaceRecord maps a peering-LAN address to the member AS holding
// it, within the named IXP.
type InterfaceRecord struct {
	IP  netip.Addr
	ASN netsim.ASN
	IXP string
}

// PortRecord reports the port capacity of a member at an IXP.
type PortRecord struct {
	IXP      string
	ASN      netsim.ASN
	PortMbps int
}

// Snapshot is one source's view of the IXP ecosystem.
type Snapshot struct {
	Source     Source
	Prefixes   []PrefixRecord
	Interfaces []InterfaceRecord
	Ports      []PortRecord
	// MinPortMbps is the minimum physical port capacity from the IXP's
	// pricing page (websites only).
	MinPortMbps map[string]int
}

// NoiseConfig controls how lossy each synthesized source is. All rates
// are probabilities in [0, 1].
type NoiseConfig struct {
	// Coverage is the probability that a ground-truth record appears in
	// the source at all.
	Coverage map[Source]float64
	// WrongASN is the probability that an interface record carries a
	// wrong AS (Table 1 conflict rates are a fraction of a percent).
	WrongASN map[Source]float64
	// PortCoverage and StalePort control port-capacity records: Website
	// data is authoritative; PDB entries may be missing or stale.
	PortCoverage map[Source]float64
	StalePort    map[Source]float64
	// WebsiteIXPFrac is the fraction of IXPs that publish
	// machine-readable member lists on their website.
	WebsiteIXPFrac float64
}

// DefaultNoise mirrors the orders of magnitude observed in Table 1:
// HE covers nearly everything, PDB most, PCH a fifth, and conflicting
// entries stay in the 0.1-0.4% range.
func DefaultNoise() NoiseConfig {
	return NoiseConfig{
		Coverage: map[Source]float64{
			SrcWebsite: 1.0, // for IXPs that publish at all
			SrcHE:      0.94,
			SrcPDB:     0.78,
			SrcPCH:     0.20,
		},
		WrongASN: map[Source]float64{
			SrcWebsite: 0.0005,
			SrcHE:      0.0027,
			SrcPDB:     0.0028,
			SrcPCH:     0.0037,
		},
		PortCoverage: map[Source]float64{
			SrcWebsite: 0.97,
			SrcPDB:     0.80,
		},
		StalePort: map[Source]float64{
			SrcWebsite: 0.005,
			SrcPDB:     0.03,
		},
		WebsiteIXPFrac: 0.70,
	}
}

// snapshotIXP projects one IXP into a source snapshot, drawing from
// rng. The per-IXP record order is the ground-truth membership order.
func snapshotIXP(s *Snapshot, w *netsim.World, ix *netsim.IXP, src Source, n NoiseConfig, rng *rand.Rand) {
	cov := n.Coverage[src]
	wrong := n.WrongASN[src]
	portCov := n.PortCoverage[src]
	stale := n.StalePort[src]

	published := true
	if src == SrcWebsite {
		published = ix.ID < 10 || rng.Float64() < n.WebsiteIXPFrac
	}
	if !published {
		return
	}
	if rng.Float64() < cov {
		s.Prefixes = append(s.Prefixes, PrefixRecord{Prefix: ix.PeeringLAN, IXP: ix.Name})
	}
	if src == SrcWebsite {
		s.MinPortMbps[ix.Name] = ix.MinPortMbps
	}
	for _, m := range w.MembersOf(ix.ID) {
		if rng.Float64() >= cov {
			continue
		}
		asn := m.ASN
		if rng.Float64() < wrong {
			// Conflicting entry: attribute the interface to a random
			// other member of the same IXP (the typical real-world
			// artefact: stale reassignment).
			others := w.MembersOf(ix.ID)
			asn = others[rng.Intn(len(others))].ASN
		}
		s.Interfaces = append(s.Interfaces, InterfaceRecord{IP: m.Iface, ASN: asn, IXP: ix.Name})
		if portCov > 0 && rng.Float64() < portCov {
			p := m.PortMbps
			if rng.Float64() < stale {
				// Stale record: report the IXP's base physical port
				// instead of the member's true capacity.
				p = ix.MinPortMbps
			}
			s.Ports = append(s.Ports, PortRecord{IXP: ix.Name, ASN: m.ASN, PortMbps: p})
		}
	}
}

// SourceStats summarises one source's contribution to the merged
// dataset (one row of Table 1).
type SourceStats struct {
	Source             Source
	Prefixes           int // total prefixes contributed
	UniquePrefixes     int // prefixes no higher-preference source had
	ConflictPrefixes   int // prefixes disagreeing with a higher source
	Interfaces         int
	UniqueInterfaces   int
	ConflictInterfaces int
}

// Dataset is the merged, conflict-resolved IXP dataset the inference
// pipeline consumes.
type Dataset struct {
	// PrefixIXP maps each peering-LAN prefix to the IXP name.
	PrefixIXP map[netip.Prefix]string
	// IfaceASN maps each known IXP interface to its member AS.
	IfaceASN map[netip.Addr]netsim.ASN
	// IfaceIXP maps each known IXP interface to the IXP name.
	IfaceIXP map[netip.Addr]string
	// Ports maps (IXP name, ASN) to the reported port capacity.
	Ports map[PortKey]int
	// MinPort maps IXP name to the advertised minimum physical port
	// capacity (absent for IXPs without website pricing data).
	MinPort map[string]int
	// Stats holds the per-source Table 1 rows, in preference order.
	Stats []SourceStats
}

// PortKey identifies one membership in the Ports map.
type PortKey struct {
	IXP string
	ASN netsim.ASN
}

// Merge combines snapshots with the preference ordering
// Websites > HE > PDB > PCH, counting per-source contributions and
// conflicts (Table 1).
func Merge(snaps []*Snapshot) *Dataset {
	d := &Dataset{
		PrefixIXP: make(map[netip.Prefix]string),
		IfaceASN:  make(map[netip.Addr]netsim.ASN),
		IfaceIXP:  make(map[netip.Addr]string),
		Ports:     make(map[PortKey]int),
		MinPort:   make(map[string]int),
	}
	ordered := append([]*Snapshot(nil), snaps...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Source < ordered[j].Source })

	// Presize the merged maps to the largest single source: lower-
	// preference sources mostly re-cover the same records, so the
	// largest contributor approximates the final cardinality.
	maxIfaces, maxPrefixes, maxPorts := 0, 0, 0
	for _, s := range ordered {
		maxIfaces = max(maxIfaces, len(s.Interfaces))
		maxPrefixes = max(maxPrefixes, len(s.Prefixes))
		maxPorts = max(maxPorts, len(s.Ports))
	}
	d.PrefixIXP = make(map[netip.Prefix]string, maxPrefixes)
	d.IfaceASN = make(map[netip.Addr]netsim.ASN, maxIfaces)
	d.IfaceIXP = make(map[netip.Addr]string, maxIfaces)
	d.Ports = make(map[PortKey]int, maxPorts)

	for _, s := range ordered {
		st := SourceStats{Source: s.Source}
		for _, p := range s.Prefixes {
			st.Prefixes++
			if prev, ok := d.PrefixIXP[p.Prefix]; ok {
				if prev != p.IXP {
					st.ConflictPrefixes++
				}
				continue // higher-preference source wins
			}
			st.UniquePrefixes++
			d.PrefixIXP[p.Prefix] = p.IXP
		}
		for _, r := range s.Interfaces {
			st.Interfaces++
			if prev, ok := d.IfaceASN[r.IP]; ok {
				if prev != r.ASN {
					st.ConflictInterfaces++
				}
				continue
			}
			st.UniqueInterfaces++
			d.IfaceASN[r.IP] = r.ASN
			d.IfaceIXP[r.IP] = r.IXP
		}
		for _, p := range s.Ports {
			k := PortKey{p.IXP, p.ASN}
			if _, ok := d.Ports[k]; !ok {
				d.Ports[k] = p.PortMbps
			}
		}
		for name, min := range s.MinPortMbps {
			if _, ok := d.MinPort[name]; !ok {
				d.MinPort[name] = min
			}
		}
		d.Stats = append(d.Stats, st)
	}
	return d
}

// Clone returns a deep copy of the dataset's maps (Stats is copied
// shallowly; its rows are values). Long-lived consumers that mutate
// their view of the registry — the rpi engine absorbing membership
// deltas — clone first so the caller's dataset stays frozen.
func (d *Dataset) Clone() *Dataset {
	return &Dataset{
		PrefixIXP: cloneMap(d.PrefixIXP),
		IfaceASN:  cloneMap(d.IfaceASN),
		IfaceIXP:  cloneMap(d.IfaceIXP),
		Ports:     cloneMap(d.Ports),
		MinPort:   cloneMap(d.MinPort),
		Stats:     append([]SourceStats(nil), d.Stats...),
	}
}

// cloneMap copies m in bulk; a nil m clones to an empty map, so every
// map of a clone takes writes.
func cloneMap[M ~map[K]V, K comparable, V any](m M) M {
	if m == nil {
		return M{}
	}
	return maps.Clone(m)
}

// IXPOf returns the IXP name whose peering LAN contains ip, if any.
func (d *Dataset) IXPOf(ip netip.Addr) (string, bool) {
	for p, name := range d.PrefixIXP {
		if p.Contains(ip) {
			return name, true
		}
	}
	return "", false
}

// MembersOf returns the interface records of one IXP, sorted by
// address for determinism.
func (d *Dataset) MembersOf(ixp string) []InterfaceRecord {
	var out []InterfaceRecord
	for ip, name := range d.IfaceIXP {
		if name == ixp {
			out = append(out, InterfaceRecord{IP: ip, ASN: d.IfaceASN[ip], IXP: name})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IP.Less(out[j].IP) })
	return out
}

// streamSnapshot salts the per-(source, IXP) RNG streams of Build.
const streamSnapshot uint64 = 0x40

// Build generates all four source snapshots from the world and merges
// them. It is the one-call entry point used by the experiments.
// Snapshot synthesis fans out over (source, IXP) tasks on workers
// (0 = GOMAXPROCS), each drawing from a stream keyed by (seed, source,
// IXP), so the dataset is bit-identical for every worker count.
func Build(w *netsim.World, n NoiseConfig, seed int64, workers int) *Dataset {
	nIXPs := len(w.IXPs)
	// One fragment snapshot per (source, IXP) task; assembled in
	// (source, IXP rank) order afterwards.
	frags := make([]*Snapshot, int(numSources)*nIXPs)
	par.Do(workers, len(frags), 1, func(ti, _ int) {
		s := Source(ti / nIXPs)
		ix := w.IXPs[ti%nIXPs]
		src := &rng.Source{}
		src.SetKey(rng.Key3(seed, streamSnapshot, uint64(s), uint64(ix.ID)))
		f := &Snapshot{Source: s, MinPortMbps: make(map[string]int, 1)}
		snapshotIXP(f, w, ix, s, n, rand.New(src))
		frags[ti] = f
	})

	snaps := make([]*Snapshot, 0, numSources)
	for s := SrcWebsite; s < numSources; s++ {
		nPre, nIf, nPort := 0, 0, 0
		for rank := 0; rank < nIXPs; rank++ {
			f := frags[int(s)*nIXPs+rank]
			nPre += len(f.Prefixes)
			nIf += len(f.Interfaces)
			nPort += len(f.Ports)
		}
		snap := &Snapshot{
			Source:      s,
			Prefixes:    make([]PrefixRecord, 0, nPre),
			Interfaces:  make([]InterfaceRecord, 0, nIf),
			Ports:       make([]PortRecord, 0, nPort),
			MinPortMbps: make(map[string]int, nIXPs),
		}
		for rank := 0; rank < nIXPs; rank++ {
			f := frags[int(s)*nIXPs+rank]
			snap.Prefixes = append(snap.Prefixes, f.Prefixes...)
			snap.Interfaces = append(snap.Interfaces, f.Interfaces...)
			snap.Ports = append(snap.Ports, f.Ports...)
			for name, min := range f.MinPortMbps {
				snap.MinPortMbps[name] = min
			}
		}
		snaps = append(snaps, snap)
	}
	return Merge(snaps)
}
