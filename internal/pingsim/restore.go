package pingsim

import (
	"fmt"
	"net/netip"
)

// This file is the restore seam for campaign results persisted in
// aggregate form (internal/worldfile): a world file carries the VP
// roster, the usable-VP selection, the route-server RTTs and the folded
// per-interface aggregates — not the raw measurement set, which is an
// order of magnitude larger and regenerable from the base inputs. A
// restored Result answers every aggregate query (IfaceIndex, AggRows,
// MinRTTByIface) and composes with WithOverrides exactly
// like a freshly run campaign; only ByVP, the raw per-VP measurement
// view some offline experiment artefacts read, is absent.

// VPHidden packs the vantage point's hidden ground-truth attributes —
// the fields campaigns consult but inference never sees. Serialisers
// round-trip them so a restored roster can still drive re-campaigns
// (exp's control measurements, RTT refreshes) faithfully.
type VPHidden struct {
	MgmtLAN     bool
	MgmtExtraMs float64
	Dead        bool
}

// Hidden captures the VP's hidden ground-truth attributes.
func (vp *VP) Hidden() VPHidden {
	return VPHidden{MgmtLAN: vp.mgmtLAN, MgmtExtraMs: vp.mgmtExtraMs, Dead: vp.dead}
}

// SetHidden restores hidden ground-truth attributes on a deserialised
// VP.
func (vp *VP) SetHidden(h VPHidden) {
	vp.mgmtLAN, vp.mgmtExtraMs, vp.dead = h.MgmtLAN, h.MgmtExtraMs, h.Dead
}

// RestoredResult assembles a campaign Result from persisted aggregate
// columns: the full VP roster, the IDs of the VPs that survived the
// route-server filter (in original UsableVPs order), the per-VP route
// server RTTs, and the folded per-interface aggregates. The aggs map is
// adopted, not copied — the caller must not mutate it afterwards — and
// each aggregate's BestVP must point into the given roster.
func RestoredResult(vps []*VP, usableIDs []int, rsRTT map[int]float64, aggs map[netip.Addr]*IfaceAgg) (*Result, error) {
	byID := make(map[int]*VP, len(vps))
	for _, vp := range vps {
		if _, dup := byID[vp.ID]; dup {
			return nil, fmt.Errorf("pingsim: restore: duplicate VP id %d", vp.ID)
		}
		byID[vp.ID] = vp
	}
	usable := make([]*VP, len(usableIDs))
	for i, id := range usableIDs {
		vp := byID[id]
		if vp == nil {
			return nil, fmt.Errorf("pingsim: restore: usable VP %d is not in the roster", id)
		}
		usable[i] = vp
	}
	for ip, a := range aggs {
		if a == nil {
			return nil, fmt.Errorf("pingsim: restore: nil aggregate for %s", ip)
		}
	}
	if aggs == nil {
		aggs = make(map[netip.Addr]*IfaceAgg)
	}
	return &Result{
		VPs:            vps,
		RouteServerRTT: rsRTT,
		UsableVPs:      usable,
		baseAgg:        aggs,
	}, nil
}
