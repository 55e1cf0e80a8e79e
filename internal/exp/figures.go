package exp

import (
	"math"

	"rpeer/internal/core"
	"rpeer/internal/geo"
	"rpeer/internal/netsim"
	"rpeer/internal/report"
)

// Fig1a regenerates the facility-presence distribution of ASes and
// IXPs (how many facilities each is present at).
func Fig1a(env *Env) Result {
	var asCounts, ixpCounts []float64
	for _, facs := range env.Colo.ASFacilities {
		asCounts = append(asCounts, float64(len(facs)))
	}
	for _, facs := range env.Colo.IXPFacilities {
		ixpCounts = append(ixpCounts, float64(len(facs)))
	}
	asE, ixE := report.NewECDF(asCounts), report.NewECDF(ixpCounts)
	t := report.NewTable("Fig 1a: facility presence distribution",
		"Entity", "n", "P(<=1 facility)", "P(<=10)", "P(>10)")
	t.AddRow("ASes", asE.Len(), report.Pct(asE.At(1)), report.Pct(asE.At(10)), report.Pct(1-asE.At(10)))
	t.AddRow("IXPs", ixE.Len(), report.Pct(ixE.At(1)), report.Pct(ixE.At(10)), report.Pct(1-ixE.At(10)))
	return Result{
		ID:         "Fig 1a",
		Title:      "Distribution of ASNs and IXP facilities",
		PaperClaim: "~60% of IXPs and ASes present in a single facility; only ~5% in more than 10",
		Table:      t,
	}
}

// Fig1b regenerates the control-subset minimum-RTT ECDFs for remote
// and local peers.
func Fig1b(env *Env) Result {
	res := env.controlCampaign()
	rtts := res.MinRTTByIface()
	control := env.ControlSubset()
	var local, remote []float64
	for k := range control.Local {
		if v, ok := rtts[k.Iface]; ok {
			local = append(local, v)
		}
	}
	for k := range control.Remote {
		if v, ok := rtts[k.Iface]; ok {
			remote = append(remote, v)
		}
	}
	le, re := report.NewECDF(local), report.NewECDF(remote)
	t := report.NewTable("Fig 1b: control-subset RTTmin ECDF",
		"Class", "n", "P(<1ms)", "P(<2ms)", "P(<10ms)", "median ms")
	t.AddRow("local", le.Len(), report.Pct(le.At(1)), report.Pct(le.At(2)), report.Pct(le.At(10)), le.Median())
	t.AddRow("remote", re.Len(), report.Pct(re.At(1)), report.Pct(re.At(2)), report.Pct(re.At(10)), re.Median())
	return Result{
		ID:    "Fig 1b",
		Title: "Minimum RTTs of remote and local peers (control subset)",
		PaperClaim: "99% of local peers below 1ms; yet 18% of remote peers below " +
			"1ms and 40% below the 10ms threshold of prior work",
		Table: t,
	}
}

// Fig2a regenerates the wide-area IXP inter-facility delay matrix
// summary (NET-IX analogue).
func Fig2a(env *Env) Result {
	wide := widestIXP(env)
	t := report.NewTable("Fig 2a: inter-facility RTTs of a wide-area IXP",
		"IXP", "#Facilities", "#Pairs", "P(RTT>10ms)", "median ms", "max ms")
	if wide != nil {
		ds := env.World.Latency().InterFacilityDelays(wide.ID)
		var rtts []float64
		over10 := 0
		for _, s := range ds {
			rtts = append(rtts, s.RTTMs)
			if s.RTTMs > 10 {
				over10++
			}
		}
		e := report.NewECDF(rtts)
		frac := 0.0
		if len(ds) > 0 {
			frac = float64(over10) / float64(len(ds))
		}
		t.AddRow(wide.Name, len(wide.Facilities), len(ds), report.Pct(frac), e.Median(), e.Quantile(1))
	}
	return Result{
		ID:         "Fig 2a",
		Title:      "Median RTTs between wide-area IXP facilities",
		PaperClaim: "for 87% of NET-IX facility pairs the median RTT exceeds 10ms",
		Table:      t,
	}
}

// widestIXP picks the wide-area IXP with the most facilities.
func widestIXP(env *Env) *netsim.IXP {
	var best *netsim.IXP
	for _, ix := range env.World.IXPs {
		if !ix.WideArea {
			continue
		}
		if best == nil || len(ix.Facilities) > len(best.Facilities) {
			best = ix
		}
	}
	return best
}

// Fig2b regenerates the wide-area IXP prevalence analysis: maximum
// facility spread vs membership, and the wide-area share among all
// IXPs and the largest 50% of IXPs.
func Fig2b(env *Env) Result {
	t := report.NewTable("Fig 2b: wide-area IXPs (facility spread vs members)",
		"Scope", "IXPs", "Wide-area", "Share")
	nAll, wideAll := 0, 0
	nTop, wideTop := 0, 0
	ranked := env.World.LargestIXPs(len(env.World.IXPs))
	for rank, ix := range ranked {
		locs := env.World.FacilityLocs(ix.ID)
		maxD, _, _ := geo.MaxPairwiseKm(locs)
		isWide := len(locs) > 1 && maxD > geo.MetroSeparationKm
		nAll++
		if isWide {
			wideAll++
		}
		if rank < len(ranked)/2 {
			nTop++
			if isWide {
				wideTop++
			}
		}
	}
	t.AddRow("all IXPs", nAll, wideAll, report.Pct(float64(wideAll)/float64(nAll)))
	t.AddRow("largest half", nTop, wideTop, report.Pct(float64(wideTop)/float64(nTop)))
	return Result{
		ID:         "Fig 2b",
		Title:      "Prevalence of wide-area IXPs",
		PaperClaim: "64 of 446 IXPs (14.4%) are wide-area; 10 of the 50 largest (20%)",
		Table:      t,
	}
}

// Fig4 regenerates the port-capacity comparison of remote vs local
// peers in the control subset.
func Fig4(env *Env) Result {
	control := env.ControlSubset()
	memberPort := make(map[string]int) // iface -> port
	for _, m := range env.World.Members {
		memberPort[m.Iface.String()] = m.PortMbps
	}
	collect := func(keys map[core.Key]bool) []float64 {
		var out []float64
		for k := range keys {
			if p, ok := memberPort[k.Iface.String()]; ok {
				out = append(out, float64(p))
			}
		}
		return out
	}
	bounds := []float64{999, 9999, 99999, math.Inf(1)}
	labels := []string{"<1GE (fractional)", "1GE", "10-40GE", "100GE+"}
	lh := report.NewHistogram(collect(control.Local), bounds, labels)
	rh := report.NewHistogram(collect(control.Remote), bounds, labels)
	t := report.NewTable("Fig 4: port capacities, remote vs local (control subset)",
		"Capacity", "Local", "Local %", "Remote", "Remote %")
	for i, lab := range labels {
		t.AddRow(lab, lh.Counts[i], report.Pct(lh.Frac(i)), rh.Counts[i], report.Pct(rh.Frac(i)))
	}
	return Result{
		ID:    "Fig 4",
		Title: "Port capacities of remote and local peers",
		PaperClaim: "no local peer below 1GE; 27% of remote peers on fractional " +
			"(FE) ports; 100GE ports exclusively local",
		Table: t,
	}
}

// Fig5 regenerates the common-facility analysis of remote vs local
// peers in the control subset.
func Fig5(env *Env) Result {
	control := env.ControlSubset()
	type counts struct{ noData, zero, one, more int }
	tally := func(keys map[core.Key]bool) counts {
		var c counts
		for k := range keys {
			asn := env.Dataset.IfaceASN[k.Iface]
			common, ok := env.Colo.CommonWithIXP(asn, k.IXP)
			switch {
			case !ok:
				c.noData++
			case len(common) == 0:
				c.zero++
			case len(common) == 1:
				c.one++
			default:
				c.more++
			}
		}
		return c
	}
	lc, rc := tally(control.Local), tally(control.Remote)
	t := report.NewTable("Fig 5: IXP facilities shared with the IXP (control subset)",
		"Common facilities", "Local", "Remote")
	t.AddRow("no colo data", lc.noData, rc.noData)
	t.AddRow("0", lc.zero, rc.zero)
	t.AddRow("1", lc.one, rc.one)
	t.AddRow(">1", lc.more, rc.more)
	return Result{
		ID:    "Fig 5",
		Title: "Facility overlap of members with their IXP",
		PaperClaim: "all local peers share >=1 facility with the IXP; 95% of " +
			"remote peers share none; 18% of remotes lack data; ~5% show one " +
			"(reseller-facility artefacts and colocated reseller customers)",
		Table: t,
	}
}

// Fig6 regenerates the inter-facility RTT-vs-distance fit: the Y.1731
// corpus of the wide-area IXPs, the fitted lower-bound speed curve and
// the 4/9c upper bound.
func Fig6(env *Env) Result {
	var samples []geo.DelaySample
	for _, ix := range env.World.IXPs {
		if ix.WideArea {
			samples = append(samples, env.World.Latency().InterFacilityDelays(ix.ID)...)
		}
	}
	model, err := geo.FitMinSpeed(samples, 0)
	t := report.NewTable("Fig 6: inter-facility RTT vs distance and speed bounds",
		"Quantity", "Value")
	t.AddRow("Y.1731 samples", len(samples))
	if err == nil {
		t.AddRow("fitted vmin slope A (km/ms per ln km)", model.A)
		t.AddRow("fitted vmin offset B (ln km)", model.B)
		inBounds := 0
		for _, s := range samples {
			v := s.DistanceKm / s.RTTMs
			if v <= model.VMaxKmPerMs+1e-9 && v >= model.VMin(s.DistanceKm)-1e-9 {
				inBounds++
			}
		}
		t.AddRow("samples within [vmin, 4/9c]", report.Pct(float64(inBounds)/float64(len(samples))))
		def := geo.DefaultSpeedModel()
		t.AddRow("default-model dmax at 4ms (km)", def.DMax(4))
		t.AddRow("default-model dmin at 4ms (km)", def.DMin(4))
	} else {
		t.AddRow("fit error", err.Error())
	}
	return Result{
		ID:    "Fig 6",
		Title: "Inter-facility RTT as a function of distance",
		PaperClaim: "all facility-to-facility samples below the 4/9c packet speed " +
			"(Katz-Bassett et al.); fitted log lower bound vmin(d) approximates " +
			"the slowest observed effective speeds",
		Table: t,
	}
}
