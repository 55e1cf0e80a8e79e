package pingsim

import (
	"fmt"
	"math"
	"net/netip"
	"slices"

	"rpeer/internal/geo"
	"rpeer/internal/netsim"
	"rpeer/internal/snapshot"
)

// This file is the one codec for persisted campaign state. Every
// on-disk format carries per-interface aggregates as the same row —
// address, RTTmin (NaN = revoked), best-VP ID (noVP = none) and the
// packed rounding flags:
//
//   - world files (internal/worldfile) carry the folded campaign: the
//     VP roster, the usable-VP selection, the route-server RTTs and the
//     aggregate rows (EncodeCampaign / DecodeCampaign) — not the raw
//     measurement set, which is an order of magnitude larger and
//     regenerable from the base inputs;
//   - engine snapshots carry the override overlay as aggregate rows
//     (AppendAggCols / ReadAggCols);
//   - WAL records carry a delta's overrides field by field (VPID, Flags,
//     AggFromRow) inside their own record layout.
//
// A decoded campaign answers every aggregate query (IfaceIndex,
// AggRows, MinRTTByIface) and composes with WithOverrides exactly like
// a freshly run one: its rows are the base aggregate layer as decoded.
// Only ByVP, the raw per-VP measurement view some offline experiment
// artefacts read, is absent.

// noVP is the persisted VP ID of an aggregate without a vantage point
// (a measurement revocation).
const noVP = ^uint32(0)

// Rounding flag bits of a persisted aggregate (see Flags).
const (
	aggBestRoundsUp = 1 << 0
	aggAnyRounding  = 1 << 1
)

// VPID returns the persisted ID of a's best vantage point, noVP
// without one.
func (a *IfaceAgg) VPID() uint32 {
	if a.BestVP == nil {
		return noVP
	}
	return uint32(a.BestVP.ID)
}

// Flags packs a's rounding bits into the persisted flag byte.
func (a *IfaceAgg) Flags() uint8 {
	var fl uint8
	if a.BestRoundsUp {
		fl |= aggBestRoundsUp
	}
	if a.AnyRounding {
		fl |= aggAnyRounding
	}
	return fl
}

// AggFromRow rebuilds an aggregate from its persisted fields,
// resolving the VP ID through vp (Result.VP of the campaign the row
// belongs to). A measured row must name a known vantage point; only a
// revocation (NaN RTT) may carry noVP.
func AggFromRow(rtt float64, vpID uint32, flags uint8, vp func(id int) (*VP, bool)) (IfaceAgg, error) {
	a := IfaceAgg{
		RTTMinMs:     rtt,
		BestRoundsUp: flags&aggBestRoundsUp != 0,
		AnyRounding:  flags&aggAnyRounding != 0,
	}
	if vpID == noVP {
		if !math.IsNaN(rtt) {
			return a, fmt.Errorf("measured aggregate (%v ms) has no vantage point", rtt)
		}
		return a, nil
	}
	v, ok := vp(int(vpID))
	if !ok {
		return a, fmt.Errorf("aggregate references unknown vantage point %d", vpID)
	}
	a.BestVP = v
	return a, nil
}

// Aggregate row column names, shared by world files and snapshots.
const (
	colAggAddr  = "ping.addr"  // addr: interface
	colAggRTT   = "ping.rtt"   // f64: RTTmin (NaN = revoked)
	colAggVP    = "ping.vp"    // u32: best VP ID (noVP = none)
	colAggFlags = "ping.flags" // u8: Flags
)

// AppendAggCols appends rows as the four aggregate columns, in the
// given order (callers pass address order).
func AppendAggCols(c *snapshot.Cols, rows []AggRow) {
	addrs := make([]netip.Addr, len(rows))
	rtt := make([]float64, len(rows))
	vps := make([]uint32, len(rows))
	flags := make([]uint8, len(rows))
	for i, row := range rows {
		addrs[i], rtt[i] = row.Iface, row.Agg.RTTMinMs
		vps[i], flags[i] = row.Agg.VPID(), row.Agg.Flags()
	}
	c.Addr(colAggAddr, addrs)
	c.F64(colAggRTT, rtt)
	c.U32(colAggVP, vps)
	c.U8(colAggFlags, flags)
}

// ReadAggCols reads the rows AppendAggCols wrote, resolving VP IDs
// through vp. Failures are recorded in rd.
func ReadAggCols(rd *snapshot.Reader, vp func(id int) (*VP, bool)) []AggRow {
	n := rd.Rows(colAggAddr, colAggRTT, colAggVP, colAggFlags)
	addrs, rtt, vps, flags := rd.Addr(colAggAddr), rd.F64(colAggRTT), rd.U32(colAggVP), rd.U8(colAggFlags)
	if rd.Err() != nil {
		return nil
	}
	rows := make([]AggRow, n)
	aggs := make([]IfaceAgg, n)
	for i := range rows {
		a, err := AggFromRow(rtt[i], vps[i], flags[i], vp)
		if err != nil {
			rd.Failf("aggregate row for %s: %v", addrs[i], err)
			return nil
		}
		aggs[i] = a
		rows[i] = AggRow{Iface: addrs[i], Agg: &aggs[i]}
	}
	return rows
}

// Roster flag bits (vp.flags): RoundsUp plus the hidden ground-truth
// attributes, persisted so a decoded roster can still drive
// re-campaigns (exp's control measurements, RTT refreshes) faithfully.
const (
	vpRoundsUp = 1 << 0
	vpMgmtLAN  = 1 << 1
	vpDead     = 1 << 2
)

// EncodeCampaign appends the folded campaign: the VP roster (roster
// order), the usable-VP IDs (UsableVPs order), the route-server RTTs
// (VP-ID order) and the aggregate rows (address order, any override
// overlay already folded in — a decoded campaign starts with a clean
// overlay over these aggregates).
func EncodeCampaign(c *snapshot.Cols, r *Result) {
	n := len(r.VPs)
	id, ixp, fac := make([]uint32, n), make([]uint32, n), make([]uint32, n)
	kind, flags := make([]uint8, n), make([]uint8, n)
	lat, lon, extra := make([]float64, n), make([]float64, n), make([]float64, n)
	src := make([]netip.Addr, n)
	for i, vp := range r.VPs {
		id[i], ixp[i], fac[i] = uint32(vp.ID), uint32(vp.IXP), uint32(int32(vp.Facility))
		kind[i] = uint8(vp.Kind)
		lat[i], lon[i], extra[i] = vp.Loc.Lat, vp.Loc.Lon, vp.mgmtExtraMs
		src[i] = vp.SrcIP
		if vp.RoundsUp {
			flags[i] |= vpRoundsUp
		}
		if vp.mgmtLAN {
			flags[i] |= vpMgmtLAN
		}
		if vp.dead {
			flags[i] |= vpDead
		}
	}
	c.U32("vp.id", id)
	c.U32("vp.ixp", ixp)
	c.U8("vp.kind", kind)
	c.U32("vp.fac", fac)
	c.F64("vp.lat", lat)
	c.F64("vp.lon", lon)
	c.PackedAddrs("vp.src", src)
	c.U8("vp.flags", flags)
	c.F64("vp.mgmtextra", extra)

	usable := make([]uint32, len(r.UsableVPs))
	for i, vp := range r.UsableVPs {
		usable[i] = uint32(vp.ID)
	}
	c.U32("vp.usable", usable)

	rsVP := make([]uint32, 0, len(r.RouteServerRTT))
	for id := range r.RouteServerRTT {
		rsVP = append(rsVP, uint32(id))
	}
	slices.Sort(rsVP)
	rsRTT := make([]float64, len(rsVP))
	for i, id := range rsVP {
		rsRTT[i] = r.RouteServerRTT[int(id)]
	}
	c.U32("rs.vp", rsVP)
	c.F64("rs.rtt", rsRTT)

	AppendAggCols(c, r.AggRows())
}

// DecodeCampaign reads the columns EncodeCampaign wrote. Failures are
// recorded in rd (and the result is nil).
func DecodeCampaign(rd *snapshot.Reader) *Result {
	n := rd.Rows("vp.id", "vp.ixp", "vp.kind", "vp.fac", "vp.lat", "vp.lon", "vp.flags", "vp.mgmtextra")
	id, ixp, kind, fac := rd.U32("vp.id"), rd.U32("vp.ixp"), rd.U8("vp.kind"), rd.U32("vp.fac")
	lat, lon, flags, extra := rd.F64("vp.lat"), rd.F64("vp.lon"), rd.U8("vp.flags"), rd.F64("vp.mgmtextra")
	src := rd.PackedAddrs("vp.src", n)
	nRS := rd.Rows("rs.vp", "rs.rtt")
	rsVP, rsRTT, usable := rd.U32("rs.vp"), rd.F64("rs.rtt"), rd.U32("vp.usable")
	if rd.Err() != nil {
		return nil
	}

	r := &Result{
		VPs:            make([]*VP, n),
		RouteServerRTT: make(map[int]float64, nRS),
		UsableVPs:      make([]*VP, len(usable)),
		byID:           make(map[int]*VP, n),
	}
	for i := range r.VPs {
		vp := &VP{
			ID: int(id[i]), IXP: netsim.IXPID(int32(ixp[i])), Kind: VPKind(kind[i]),
			Facility: netsim.FacilityID(int32(fac[i])),
			Loc:      geo.Point{Lat: lat[i], Lon: lon[i]},
			SrcIP:    src[i],
			RoundsUp: flags[i]&vpRoundsUp != 0,
			mgmtLAN:  flags[i]&vpMgmtLAN != 0, mgmtExtraMs: extra[i],
			dead: flags[i]&vpDead != 0,
		}
		if _, dup := r.byID[vp.ID]; dup {
			rd.Failf("duplicate VP id %d", vp.ID)
			return nil
		}
		r.VPs[i], r.byID[vp.ID] = vp, vp
	}
	for i, vid := range usable {
		vp, ok := r.VP(int(vid))
		if !ok {
			rd.Failf("usable VP %d is not in the roster", vid)
			return nil
		}
		r.UsableVPs[i] = vp
	}
	for i := 0; i < nRS; i++ {
		r.RouteServerRTT[int(rsVP[i])] = rsRTT[i]
	}

	rows := ReadAggCols(rd, r.VP)
	if rd.Err() != nil {
		return nil
	}
	// The rows are the base layer as they stand, which holds them to
	// the order EncodeCampaign writes.
	for i := 1; i < len(rows); i++ {
		if !rows[i-1].Iface.Less(rows[i].Iface) {
			rd.Failf("aggregate rows out of address order at %s", rows[i].Iface)
			return nil
		}
	}
	r.base = rows
	return r
}
