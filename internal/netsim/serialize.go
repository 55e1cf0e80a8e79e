package netsim

import (
	"fmt"
	"net/netip"
)

// WorldParts is the entity-level content of a World: everything a
// serialised form must carry, none of the derived state (lookup
// indices, the latency oracle) a loader rebuilds. The world decoder of
// the binary columnar internal/worldfile assembles through it.
type WorldParts struct {
	Cfg        Config
	Cities     []City
	Facilities []*Facility
	IXPs       []*IXP
	ASes       []*AS
	Routers    []*Router
	Members    []*Member
	Private    []PrivateLink
	Resellers  []ASN
	Prefixes   map[ASN][]netip.Prefix
}

// Parts decomposes the world into its serialisable entity content.
// Slices and maps are shared with the world, not copied; encoders must
// treat them as read-only. ASes and Routers come out in sorted ID
// order, so an encoder iterating them is deterministic.
func (w *World) Parts() WorldParts {
	p := WorldParts{
		Cfg:        w.Cfg,
		Cities:     w.Cities,
		Facilities: w.Facilities,
		IXPs:       w.IXPs,
		Members:    w.Members,
		Private:    w.Private,
		Resellers:  w.Resellers,
		Prefixes:   w.asPrefixes,
	}
	for _, asn := range w.ASNs {
		p.ASes = append(p.ASes, w.ASes[asn])
	}
	for _, id := range w.RouterIDs {
		p.Routers = append(p.Routers, w.Routers[id])
	}
	return p
}

// FromParts assembles a live World from deserialised entity content:
// lookup maps, dense indices and the latency oracle are rebuilt, and
// member references are sanity-checked. The result is indistinguishable
// from the World the parts were captured from.
func FromParts(parts WorldParts) (*World, error) {
	w := &World{
		Cfg:        parts.Cfg,
		Cities:     parts.Cities,
		Facilities: parts.Facilities,
		IXPs:       parts.IXPs,
		Members:    parts.Members,
		Private:    parts.Private,
		Resellers:  parts.Resellers,
		ASes:       make(map[ASN]*AS, len(parts.ASes)),
		Routers:    make(map[RouterID]*Router, len(parts.Routers)),
		asPrefixes: parts.Prefixes,
	}
	if w.asPrefixes == nil {
		w.asPrefixes = make(map[ASN][]netip.Prefix)
	}
	for _, as := range parts.ASes {
		w.ASes[as.ASN] = as
	}
	// Router IDs are dense (the generator assigns them sequentially),
	// which the indices below rely on. A counter rate outside
	// [0, maxIPIDRate] is no IP-ID counter the generator makes.
	for _, r := range parts.Routers {
		if r.ID < 0 || int(r.ID) >= len(parts.Routers) || w.Routers[r.ID] != nil {
			return nil, fmt.Errorf("netsim: router ID %d is out of range or repeated among %d routers", r.ID, len(parts.Routers))
		}
		if !(r.IPIDRate >= 0 && r.IPIDRate <= maxIPIDRate) {
			return nil, fmt.Errorf("netsim: router %d IP-ID rate %v is outside [0, %d]", r.ID, r.IPIDRate, maxIPIDRate)
		}
		w.Routers[r.ID] = r
	}
	w.lat = newLatency(w, parts.Cfg.Seed)
	w.buildIndices()
	// Sanity: every member must reference known entities.
	for _, m := range w.Members {
		if w.IXP(m.IXP) == nil {
			return nil, fmt.Errorf("netsim: member %s references unknown IXP %d", m.ASN, m.IXP)
		}
		if w.Router(m.Router) == nil {
			return nil, fmt.Errorf("netsim: member %s references unknown router %d", m.ASN, m.Router)
		}
	}
	for _, pl := range w.Private {
		if w.Router(pl.A) == nil || w.Router(pl.B) == nil {
			return nil, fmt.Errorf("netsim: private link references unknown router %d or %d", pl.A, pl.B)
		}
	}
	return w, nil
}
