package exp

import (
	"math"

	"rpeer/internal/cone"
	"rpeer/internal/core"
	"rpeer/internal/evolve"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/report"
	"rpeer/internal/resilience"
	"rpeer/internal/routing"
	"rpeer/internal/tracesim"
)

// Fig8 regenerates the per-IXP precision and accuracy validation over
// the test subset, ordered by IXP size.
func Fig8(env *Env) Result {
	test := env.TestSubset()
	per := core.EvaluatePerIXP(env.Report, test)
	names := make(map[string]bool, len(per))
	for n := range per {
		names[n] = true
	}
	t := report.NewTable("Fig 8: per-IXP validation (test subset)",
		"IXP", "Validated", "PRE", "ACC", "COV")
	for _, name := range env.sortedIXPNames(names) {
		m := per[name]
		t.AddRow(name, m.Validated, report.Pct(m.PRE), report.Pct(m.ACC), report.Pct(m.COV))
	}
	return Result{
		ID:    "Fig 8",
		Title: "Validation results per IXP",
		PaperClaim: "precision and accuracy consistent across IXPs; lowest " +
			"precision 92% (SeattleIX, incomplete colo data), lowest accuracy 91%",
		Table: t,
	}
}

// Fig9a regenerates the VP response-rate analysis.
func Fig9a(env *Env) Result {
	t := report.NewTable("Fig 9a: VP response rates",
		"VP kind", "#VPs", "usable", "dead/filtered", "mean resp. rate")
	for _, kind := range []pingsim.VPKind{pingsim.KindLG, pingsim.KindAtlas} {
		var n, usable int
		var rates []float64
		usableSet := make(map[int]bool)
		for _, vp := range env.Ping.UsableVPs {
			usableSet[vp.ID] = true
		}
		for _, vp := range env.Ping.VPs {
			if vp.Kind != kind {
				continue
			}
			n++
			if usableSet[vp.ID] {
				usable++
			}
			var resp, tot int
			for _, m := range env.Ping.ByVP[vp.ID] {
				tot++
				if m.Responsive() {
					resp++
				}
			}
			if tot > 0 {
				rates = append(rates, float64(resp)/float64(tot))
			}
		}
		mean := 0.0
		for _, r := range rates {
			mean += r
		}
		if len(rates) > 0 {
			mean /= float64(len(rates))
		}
		t.AddRow(kind.String(), n, usable, n-usable, report.Pct(mean))
	}
	return Result{
		ID:    "Fig 9a",
		Title: "Response rate of LGs and Atlas probes",
		PaperClaim: "LGs respond at high rates (peering-LAN attached); 14 of 66 " +
			"Atlas probes silent and 21 more dropped by the route-server filter",
		Table: t,
	}
}

// Fig9b regenerates the all-interface RTTmin ECDF of the main
// campaign.
func Fig9b(env *Env) Result {
	rtts := env.Ping.MinRTTByIface()
	var vals []float64
	for _, v := range rtts {
		vals = append(vals, v)
	}
	e := report.NewECDF(vals)
	t := report.NewTable("Fig 9b: RTTmin ECDF over all measured interfaces",
		"Quantity", "Value")
	t.AddRow("interfaces", e.Len())
	t.AddRow("P(<2ms)", report.Pct(e.At(2)))
	t.AddRow("P(<10ms)", report.Pct(e.At(10)))
	t.AddRow("P(>10ms)", report.Pct(1-e.At(10)))
	t.AddRow("median ms", e.Median())
	return Result{
		ID:    "Fig 9b",
		Title: "Minimum RTT per responsive interface",
		PaperClaim: "75% of interfaces within 2ms of their VP; more than 20% " +
			"above 10ms (a 2x increase since 2014)",
		Table: t,
	}
}

// Fig9c regenerates the Step-3 cross-tabulation: inference outcome vs
// number of feasible IXP facilities.
func Fig9c(env *Env) Result {
	type bucket struct{ zeroFac, someFac, over2ms int }
	perClass := map[core.PeerClass]*bucket{
		core.ClassLocal:   {},
		core.ClassRemote:  {},
		core.ClassUnknown: {},
	}
	for _, inf := range env.Report.All() {
		if inf.Step != core.StepRTTColo && !(inf.Step == core.StepNone && inf.FeasibleIXPFacilities >= 0) {
			continue
		}
		b := perClass[inf.Class]
		if inf.FeasibleIXPFacilities == 0 {
			b.zeroFac++
		} else if inf.FeasibleIXPFacilities > 0 {
			b.someFac++
			if inf.RTTMinMs > 2 {
				b.over2ms++
			}
		}
	}
	t := report.NewTable("Fig 9c: Step-3 outcome vs feasible IXP facilities",
		"Outcome", "0 feasible fac", ">=1 feasible fac", "of which RTT>2ms")
	for _, c := range []core.PeerClass{core.ClassLocal, core.ClassRemote, core.ClassUnknown} {
		b := perClass[c]
		t.AddRow(c.String(), b.zeroFac, b.someFac, b.over2ms)
	}
	rb := perClass[core.ClassRemote]
	n := rb.zeroFac + rb.someFac
	if n > 0 {
		t.AddRow("remote: % with no feasible fac", report.Pct(float64(rb.zeroFac)/float64(n)), "-", "-")
	}
	return Result{
		ID:    "Fig 9c",
		Title: "Inference vs feasible facilities and RTTmin",
		PaperClaim: "94% of remote interfaces have no feasible common facility " +
			"with the IXP; of the rest, 40% show RTT>2ms (spurious colo data)",
		Table: t,
	}
}

// Fig9d regenerates the multi-IXP router taxonomy vs next-hop IXP
// counts.
func Fig9d(env *Env) Result {
	t := report.NewTable("Fig 9d: multi-IXP routers by class and next-hop IXPs",
		"Class", "2 IXPs", "3-5", "6-10", ">10", "total")
	classes := []core.RouterClass{core.RouterLocal, core.RouterRemote, core.RouterHybrid, core.RouterUnclassified}
	buckets := func(rs []*core.MultiIXPRouter, c core.RouterClass) (b2, b35, b610, b10, tot int) {
		for _, r := range rs {
			if r.Class != c {
				continue
			}
			tot++
			switch n := len(r.IXPs); {
			case n == 2:
				b2++
			case n <= 5:
				b35++
			case n <= 10:
				b610++
			default:
				b10++
			}
		}
		return
	}
	for _, c := range classes {
		b2, b35, b610, b10, tot := buckets(env.Report.MultiRouters, c)
		t.AddRow(c.String(), b2, b35, b610, b10, tot)
	}
	return Result{
		ID:    "Fig 9d",
		Title: "Multi-IXP router types",
		PaperClaim: "~80% of routers behind unknown interfaces face multiple " +
			"IXPs, 25% of them more than 10; remote multi-IXP routers outnumber " +
			"hybrid ones",
		Table: t,
	}
}

// Fig10a regenerates the per-step inference contribution for the
// studied IXPs.
func Fig10a(env *Env) Result {
	shares := env.Report.StepShare()
	t := report.NewTable("Fig 10a: contribution of each inference step (top studied IXPs)",
		"IXP", "port-capacity", "rtt+colo", "multi-ixp", "private-links")
	for i, ix := range env.StudiedIXPs(30) {
		if i >= 12 { // keep the rendered table digestible
			break
		}
		s := shares[ix.Name]
		t.AddRow(ix.Name,
			report.Pct(s[core.StepPortCapacity]), report.Pct(s[core.StepRTTColo]),
			report.Pct(s[core.StepMultiIXP]), report.Pct(s[core.StepPrivate]))
	}
	return Result{
		ID:    "Fig 10a",
		Title: "Contribution of each inference step per IXP",
		PaperClaim: "steps 2+3 (RTT+colo) and 4 account for most inferences; " +
			"port capacity contributes ~10% on average (up to 40% at reseller-" +
			"heavy IXPs, 0% where reselling is not offered); step 5 needed at " +
			"only 11 of 30 IXPs",
		Table: t,
	}
}

// Fig10b regenerates the headline per-IXP local/remote shares.
func Fig10b(env *Env) Result {
	studied := env.StudiedIXPs(30)
	t := report.NewTable("Fig 10b: inferred remote share per IXP (top 10 shown + aggregate)",
		"IXP", "inferred", "remote", "remote %")
	var totDecided, totRemote, over10 int
	for i, ix := range studied {
		var dec, rem int
		lo, hi := env.Report.IXPRange(ix.Name)
		for i := lo; i < hi; i++ {
			inf := env.Report.At(i)
			if inf.Class == core.ClassUnknown {
				continue
			}
			dec++
			if inf.Class == core.ClassRemote {
				rem++
			}
		}
		totDecided += dec
		totRemote += rem
		if dec > 0 && float64(rem)/float64(dec) > 0.10 {
			over10++
		}
		if i < 10 {
			share := 0.0
			if dec > 0 {
				share = float64(rem) / float64(dec)
			}
			t.AddRow(ix.Name, dec, rem, report.Pct(share))
		}
	}
	t.AddRow("ALL (30 IXPs)", totDecided, totRemote, report.Pct(float64(totRemote)/float64(totDecided)))
	t.AddRow("IXPs with >10% remote", over10, "-", report.Pct(float64(over10)/float64(len(studied))))
	return Result{
		ID:    "Fig 10b",
		Title: "Inference results for the largest IXPs",
		PaperClaim: "28% of all inferred interfaces are remote; >90% of IXPs " +
			"above 10% remote share; the two largest IXPs near 40%",
		Table: t,
	}
}

// memberClasses buckets ASes by the remoteness of their *inferred*
// memberships.
func memberClasses(env *Env) map[netsim.ASN]cone.MemberClass {
	perAS := make(map[netsim.ASN][]bool)
	for _, inf := range env.Report.All() {
		if inf.Class == core.ClassUnknown {
			continue
		}
		perAS[inf.ASN] = append(perAS[inf.ASN], inf.Class == core.ClassRemote)
	}
	out := make(map[netsim.ASN]cone.MemberClass, len(perAS))
	for asn, rs := range perAS {
		if cls, ok := cone.Classify(rs); ok {
			out[asn] = cls
		}
	}
	return out
}

// Fig11a regenerates the customer-cone comparison of local, remote and
// hybrid members.
func Fig11a(env *Env) Result {
	g := cone.Build(env.World)
	classes := memberClasses(env)
	samples := map[cone.MemberClass][]float64{}
	for asn, cls := range classes {
		samples[cls] = append(samples[cls], float64(g.ConeSize(asn)))
	}
	t := report.NewTable("Fig 11a: customer cones by member class",
		"Class", "n", "share", "median cone", "p90 cone", "max cone")
	tot := len(classes)
	for _, cls := range []cone.MemberClass{cone.ClassLocalOnly, cone.ClassRemoteOnly, cone.ClassHybrid} {
		e := report.NewECDF(samples[cls])
		t.AddRow(cls.String(), e.Len(), report.Pct(float64(e.Len())/float64(tot)),
			e.Median(), e.Quantile(0.9), e.Quantile(1))
	}
	return Result{
		ID:    "Fig 11a",
		Title: "Customer cones of local/remote/hybrid members",
		PaperClaim: "63.7% local-only / 23.4% remote-only / 12.9% hybrid; local " +
			"and remote cones similar; hybrid members ~1 order of magnitude larger",
		Table: t,
	}
}

// Fig11b regenerates the self-reported traffic-level comparison.
func Fig11b(env *Env) Result {
	classes := memberClasses(env)
	samples := map[cone.MemberClass][]float64{}
	for asn, cls := range classes {
		if as := env.World.AS(asn); as != nil {
			samples[cls] = append(samples[cls], as.TrafficMbps)
		}
	}
	t := report.NewTable("Fig 11b: self-reported traffic by member class",
		"Class", "n", "median Mbps", "p90 Mbps", "max Mbps")
	for _, cls := range []cone.MemberClass{cone.ClassLocalOnly, cone.ClassRemoteOnly, cone.ClassHybrid} {
		e := report.NewECDF(samples[cls])
		t.AddRow(cls.String(), e.Len(), e.Median(), e.Quantile(0.9), e.Quantile(1))
	}
	return Result{
		ID:    "Fig 11b",
		Title: "Traffic levels of local/remote/hybrid members",
		PaperClaim: "remote and local traffic distributions similar; hybrids " +
			"reach the highest levels; RP spans 100s of Mbps to 100s of Gbps",
		Table: t,
	}
}

// Fig12a regenerates the growth analysis: remote vs local join and
// departure rates over the observation window.
func Fig12a(env *Env) Result {
	var ids []netsim.IXPID
	for _, ix := range env.World.LargestIXPs(5) {
		ids = append(ids, ix.ID)
	}
	s := evolve.Simulate(env.World, ids, evolve.DefaultConfig())
	l, r := s.GrowthRates()
	dl, dr := s.DepartureRates()
	t := report.NewTable("Fig 12a: membership evolution (5 tracked IXPs)",
		"Quantity", "Local", "Remote", "Remote/Local")
	t.AddRow("joins per month", l, r, r/l)
	t.AddRow("departure rate", dl, dr, dr/dl)
	t.AddRow("remote->local switches", "-", s.Switches(), "-")
	return Result{
		ID:    "Fig 12a",
		Title: "Remote vs local growth",
		PaperClaim: "remote members join 2x faster than local ones; remote " +
			"departure rates +25%; 18 remote-to-local switches observed",
		Table: t,
	}
}

// Fig12b regenerates the ping vs traceroute RTT comparison for the
// members of the largest LG-equipped IXP.
func Fig12b(env *Env) Result {
	var lgIXP *netsim.IXP
	for _, ix := range env.StudiedIXPs(30) {
		if ix.HasLG {
			lgIXP = ix
			break
		}
	}
	t := report.NewTable("Fig 12b: ping vs traceroute RTTs",
		"Method", "n", "P(<2ms)", "P(<10ms)", "median ms")
	if lgIXP != nil {
		pingRTTs := env.Ping.MinRTTByIface()
		var ping []float64
		for _, m := range env.World.MembersOf(lgIXP.ID) {
			if v, ok := pingRTTs[m.Iface]; ok {
				ping = append(ping, v)
			}
		}
		vpLoc := env.World.Facility(lgIXP.Facilities[0]).Loc
		var trace []float64
		for _, v := range tracesim.FromVP(env.World, lgIXP.ID, vpLoc, env.World.Cfg.Seed+42) {
			trace = append(trace, v)
		}
		pe, te := report.NewECDF(ping), report.NewECDF(trace)
		t.AddRow("ping", pe.Len(), report.Pct(pe.At(2)), report.Pct(pe.At(10)), pe.Median())
		t.AddRow("traceroute", te.Len(), report.Pct(te.At(2)), report.Pct(te.At(10)), te.Median())
		if math.Abs(pe.Median()-te.Median()) > 5 {
			return Result{ID: "Fig 12b", Title: "Ping vs traceroute RTTs", Table: t,
				PaperClaim: "the two RTT patterns are close",
				Notes:      []string{"WARNING: medians diverge more than expected"}}
		}
	}
	return Result{
		ID:    "Fig 12b",
		Title: "Ping vs traceroute RTTs (LINX-LON analogue)",
		PaperClaim: "traceroute-derived RTT patterns track the LG ping patterns " +
			"closely, supporting a traceroute-based scale-up",
		Table: t,
	}
}

// Sec64 regenerates the routing-implications analysis at the flagship
// IXP.
func Sec64(env *Env) Result {
	flagship := env.StudiedIXPs(1)[0]
	var remotes []netsim.ASN
	seen := make(map[netsim.ASN]bool)
	for _, inf := range env.Report.All() {
		if inf.IXP == flagship.Name && inf.Class == core.ClassRemote && !seen[inf.ASN] {
			seen[inf.ASN] = true
			remotes = append(remotes, inf.ASN)
		}
	}
	a := routing.Analyze(env.World, flagship.ID, remotes, routing.DefaultConfig())
	hot, farther, closer := a.Fractions()
	t := report.NewTable("Section 6.4: routing implications at the flagship IXP",
		"Outcome", "pairs", "share")
	t.AddRow("hot-potato compliant", a.HotPotato, report.Pct(hot))
	t.AddRow("crossed RP at flagship though closer IXP exists", a.FartherRP, report.Pct(farther))
	t.AddRow("crossed other IXP though flagship RP closer", a.CloserRP, report.Pct(closer))
	t.AddRow("total pairs", len(a.Pairs), "-")
	t.AddRow("inferred remote members", len(remotes), "-")
	return Result{
		ID:    "Sec 6.4",
		Title: "RP routing implications (DE-CIX-FRA analogue)",
		PaperClaim: "66% of crossings comply with hot-potato exit; 18% use the " +
			"remote link although a closer common IXP exists; 16% ignore a " +
			"closer remote link",
		Table: t,
	}
}

// Sec8 evaluates the "Beyond Pings" extension (paper Section 8,
// implemented in core/beyondpings.go): traceroute-derived RTT minimums
// fill interfaces the ping campaign cannot reach, trading a little
// accuracy for a large coverage gain.
func Sec8(env *Env) Result {
	test := env.TestSubset()
	opt := core.DefaultOptions()
	opt.UseTracerouteRTT = true
	ext, err := env.Ctx.Run(opt)
	t := report.NewTable("Section 8: traceroute-derived RTTs (Beyond Pings)",
		"Variant", "COV", "ACC", "PRE", "FPR", "trace-derived ifaces")
	if err == nil {
		mb := core.Evaluate(env.Report, test)
		me := core.Evaluate(ext, test)
		t.AddRow("ping-only (paper's pipeline)", report.Pct(mb.COV), report.Pct(mb.ACC),
			report.Pct(mb.PRE), report.Pct(mb.FPR), 0)
		t.AddRow("ping + traceroute RTTs", report.Pct(me.COV), report.Pct(me.ACC),
			report.Pct(me.PRE), report.Pct(me.FPR), ext.TraceDerived())
	} else {
		t.AddRow("error", err.Error(), "-", "-", "-", "-")
	}
	return Result{
		ID:    "Sec 8",
		Title: "Beyond Pings extension (future work implemented)",
		PaperClaim: "traceroutes from VPs anywhere can replace scarce in-IXP " +
			"pings: RTT patterns track the LG pings (Fig 12b), at the cost of " +
			"asymmetric-path and load-balancing artefacts",
		Table: t,
		Notes: []string{"This implements the paper's proposed follow-up; there is no paper table to compare against, only the Fig 12b premise."},
	}
}

// Sec8Longitudinal implements the paper's proposed longitudinal study
// (Section 8): tracking the remote membership share of the five
// monitored IXPs over a three-year horizon instead of the paper's
// 14-month window.
func Sec8Longitudinal(env *Env) Result {
	var ids []netsim.IXPID
	for _, ix := range env.World.LargestIXPs(5) {
		ids = append(ids, ix.ID)
	}
	cfg := evolve.DefaultConfig()
	cfg.Months = 36
	s := evolve.Simulate(env.World, ids, cfg)
	shares := s.RemoteShares()

	t := report.NewTable("Section 8: longitudinal remote-share trajectory (36 months, 5 IXPs)",
		"Quantity", "Value")
	if len(shares) > 0 {
		t.AddRow("remote share month 1", report.Pct(shares[0]))
		t.AddRow("remote share month 18", report.Pct(shares[len(shares)/2]))
		t.AddRow("remote share month 36", report.Pct(shares[len(shares)-1]))
		t.AddRow("trend", report.Sparkline(shares))
		t.AddRow("remote->local switches", s.Switches())
	}
	return Result{
		ID:    "Sec 8b",
		Title: "Longitudinal study extension (future work implemented)",
		PaperClaim: "the 14-month window shows remote peers driving IXP growth; " +
			"the proposed longitudinal study checks whether the trend persists " +
			"over years",
		Table: t,
		Notes: []string{"Extension of Fig 12a beyond the paper's observation window; no paper numbers exist for direct comparison."},
	}
}

// Sec7 quantifies the resilience implications discussed in the paper's
// Section 7: shared reseller ports and multi-IXP routers as failure
// domains that propagate outages far beyond the IXP's metro.
func Sec7(env *Env) Result {
	s := resilience.Analyze(env.World).Summarize()
	t := report.NewTable("Section 7: remote peering failure domains",
		"Quantity", "Value")
	t.AddRow("reseller ports shared by >=2 customers", s.SharedPorts)
	t.AddRow("mean customers per shared port", s.MeanCustomersPerPort)
	t.AddRow("largest single-port failure domain", s.MaxCustomersPerPort)
	t.AddRow("shared ports reaching members >500km away", s.PortsReachingOver500Km)
	t.AddRow("single routers serving >=2 IXPs", s.MultiIXPRouters)
	t.AddRow("max IXPs behind one router", s.MaxIXPsPerRouter)
	t.AddRow("memberships sharing a router across IXPs", s.MembershipsBehindMultiIXPRouters)
	return Result{
		ID:    "Sec 7",
		Title: "Resilience implications of remote peering",
		PaperClaim: "multiple peers share one reseller port; one remote router " +
			"connects to >10 IXPs; a single port or router outage propagates " +
			"far beyond the IXP metro and affects several members at once",
		Table: t,
	}
}
