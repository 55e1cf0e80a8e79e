package pingsim

import (
	"math"
	"math/rand"
	"net/netip"
	"slices"

	"rpeer/internal/ip4"
	"rpeer/internal/netsim"
	"rpeer/internal/par"
	"rpeer/internal/rng"
)

// Stream salts for the campaign's per-entity RNG streams.
const (
	streamRouteServer uint64 = iota + 0x50
	streamPair
)

// Run executes a ping campaign from every VP towards all member
// peering interfaces of the VP's IXP, applying the TTL filters and the
// route-server VP-usability filter, and aggregating minimum RTTs.
//
// The campaign fans out over workers (0 = GOMAXPROCS), one VP per
// claim. Every (VP, target) pair draws from its own stream keyed by
// (seed, VP id, interface), so scheduling order cannot leak into the
// measurements: results are bit-identical for every worker count. A
// claim keys one generator between pairs, and each VP's measurements
// live in one slab, so the campaign allocates O(VPs), not O(pairs).
func Run(w *netsim.World, vps []*VP, cfg CampaignConfig, workers int) *Result {
	res := &Result{
		VPs:            vps,
		ByVP:           make(map[int][]*Measurement, len(vps)),
		RouteServerRTT: make(map[int]float64, len(vps)),
	}

	type vpOut struct {
		rsRTT  float64
		ms     []*Measurement
		usable bool
	}
	outs := make([]vpOut, len(vps))
	par.Do(workers, len(vps), 1, func(k, _ int) {
		vp := vps[k]
		src := &rng.Source{}
		r := rand.New(src)
		src.SetKey(rng.Key3(cfg.Seed, streamRouteServer, uint64(vp.ID), 0))
		rsRTT := routeServerRTT(w, vp, r)
		usable := !vp.dead && !math.IsNaN(rsRTT) && rsRTT < 1.0

		members := w.MembersOf(vp.IXP)
		slab := make([]Measurement, len(members))
		ms := make([]*Measurement, len(members))
		for i, mem := range members {
			src.SetKey(pairKey(cfg.Seed, vp.ID, mem.Iface))
			pingTarget(&slab[i], w, vp, mem, cfg, r)
			ms[i] = &slab[i]
		}
		slices.SortFunc(ms, func(a, b *Measurement) int { return a.Iface.Compare(b.Iface) })
		outs[k] = vpOut{rsRTT: rsRTT, ms: ms, usable: usable}
	})

	for k, o := range outs {
		vp := vps[k]
		res.ByVP[vp.ID] = o.ms
		res.RouteServerRTT[vp.ID] = o.rsRTT
		if o.usable {
			res.UsableVPs = append(res.UsableVPs, vp)
		}
	}
	// Usable VPs in ID order, whatever order the caller listed them in.
	slices.SortFunc(res.UsableVPs, func(a, b *VP) int { return a.ID - b.ID })
	// Fold the per-interface aggregates eagerly: the campaign is the
	// stage that runs on the worker pool, so downstream consumers
	// (core's context build) read finished columns instead of paying
	// the fold serially.
	res.AggRows()
	return res
}

// pairKey derives the stream key for one (seed, vp, target) pair.
func pairKey(seed int64, vpID int, ip netip.Addr) uint64 {
	return rng.Key3(seed, streamPair, uint64(vpID), uint64(ip4.U32(ip)))
}
