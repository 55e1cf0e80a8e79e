package core

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"

	"rpeer/internal/ident"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/traix"
)

// deltaInputs returns the shared fixture inputs with a private dataset
// clone, so Apply's mutations cannot leak into other tests.
func deltaInputs(t testing.TB) Inputs {
	in, _, _ := fixtures(t)
	in.Dataset = in.Dataset.Clone()
	return in
}

// churnDelta assembles a realistic membership delta from the fixture
// world: leaves sampled from the dataset, joins sampled from the
// ground-truth members the registry noise had hidden.
func churnDelta(t testing.TB, in Inputs, nJoin, nLeave int) Delta {
	t.Helper()
	ds := in.Dataset
	known := make([]netip.Addr, 0, len(ds.IfaceIXP))
	for ip := range ds.IfaceIXP {
		known = append(known, ip)
	}
	sort.Slice(known, func(i, j int) bool { return known[i].Less(known[j]) })

	ixpSet := make(map[string]bool)
	for _, name := range ds.PrefixIXP {
		ixpSet[name] = true
	}
	var hidden []*netsim.Member
	for _, m := range in.World.Members {
		if _, ok := ds.IfaceIXP[m.Iface]; ok {
			continue
		}
		if !ixpSet[in.World.IXP(m.IXP).Name] {
			continue
		}
		hidden = append(hidden, m)
	}
	sort.Slice(hidden, func(i, j int) bool { return hidden[i].Iface.Less(hidden[j].Iface) })
	if len(known) < nLeave {
		t.Fatalf("fixture too small for churn: %d known", len(known))
	}

	var d Delta
	for i := 0; i < nLeave; i++ {
		ip := known[(i*37)%len(known)]
		d.Leaves = append(d.Leaves, Key{IXP: ds.IfaceIXP[ip], Iface: ip})
	}
	seen := make(map[netip.Addr]bool)
	for _, k := range d.Leaves {
		seen[k.Iface] = true
	}
	d.Leaves = dedupLeaves(d.Leaves)
	// Join the members the registry noise had hidden first...
	for i := 0; len(d.Joins) < nJoin && i < len(hidden); i++ {
		m := hidden[i]
		if seen[m.Iface] {
			continue
		}
		seen[m.Iface] = true
		j := Join{IXP: in.World.IXP(m.IXP).Name, Iface: m.Iface, ASN: m.ASN}
		if i%3 == 0 {
			j.PortMbps = m.PortMbps
		}
		d.Joins = append(d.Joins, j)
	}
	// ... then mint brand-new members on free peering-LAN addresses.
	d.Joins = append(d.Joins, mintJoins(in, nJoin-len(d.Joins), seen)...)
	return d
}

// mintJoins fabricates n new memberships on unused peering-LAN
// addresses, walking each LAN from its top end (world members are
// allocated from the bottom).
func mintJoins(in Inputs, n int, seen map[netip.Addr]bool) []Join {
	if n <= 0 {
		return nil
	}
	ds := in.Dataset
	taken := make(map[netip.Addr]bool, len(in.World.Members))
	for _, m := range in.World.Members {
		taken[m.Iface] = true
	}
	var prefixes []netip.Prefix
	for p := range ds.PrefixIXP {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Addr().Less(prefixes[j].Addr()) })

	var out []Join
	asn := netsim.ASN(900001)
	for _, p := range prefixes {
		ip := lastAddrIn(p)
		for i := 0; i < 8 && len(out) < n; i++ {
			if _, known := ds.IfaceIXP[ip]; !known && !taken[ip] && !seen[ip] {
				seen[ip] = true
				out = append(out, Join{IXP: ds.PrefixIXP[p], Iface: ip, ASN: asn, PortMbps: 1000})
				asn++
			}
			ip = ip.Prev()
			if !p.Contains(ip) {
				break
			}
		}
		if len(out) >= n {
			break
		}
	}
	return out
}

// lastAddrIn returns the highest address of a prefix.
func lastAddrIn(p netip.Prefix) netip.Addr {
	b := p.Addr().As4()
	bits := p.Bits()
	for i := 0; i < 32-bits; i++ {
		b[3-(i/8)] |= 1 << (i % 8)
	}
	return netip.AddrFrom4(b)
}

func dedupLeaves(ls []Key) []Key {
	seen := make(map[Key]bool, len(ls))
	out := ls[:0]
	for _, k := range ls {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// TestApplyMatchesColdRebuild is the incremental-update contract: a
// context that absorbed a churn delta must be report-identical to a
// context built cold over the post-delta inputs, for every option
// variant, including a second stacked delta.
func TestApplyMatchesColdRebuild(t *testing.T) {
	in := deltaInputs(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	// Warm every memoized view first, so the test catches stale-cache
	// bugs, not just cold-path agreement.
	warmOpts := DefaultOptions()
	warmOpts.UseTracerouteRTT = true
	if _, err := ctx.Run(warmOpts); err != nil {
		t.Fatal(err)
	}

	d := churnDelta(t, in, 40, 40)
	// Fold in a partial re-campaign as well.
	pcfg := pingsim.DefaultCampaign()
	pcfg.Seed = 1234
	refresh := pingsim.Run(in.World, in.Ping.VPs, pcfg, 1)
	d.Ping = pingsim.Overrides(refresh)

	if err := ctx.Apply(d); err != nil {
		t.Fatal(err)
	}

	for name, opt := range optionVariants() {
		warm, err := ctx.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := coldContext(t, ctx.Inputs()).Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "post-delta/"+name, cold, warm)
	}
	warmBase, err := ctx.Baseline(DefaultBaselineThresholdMs)
	if err != nil {
		t.Fatal(err)
	}
	coldBase, err := coldContext(t, ctx.Inputs()).Baseline(DefaultBaselineThresholdMs)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "post-delta/baseline", coldBase, warmBase)

	// A second, stacked delta over the already-patched context.
	d2 := churnDelta(t, ctx.Inputs(), 15, 15)
	if err := ctx.Apply(d2); err != nil {
		t.Fatal(err)
	}
	warm2, err := ctx.Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := coldContext(t, ctx.Inputs()).Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "stacked-delta", cold2, warm2)
}

// TestApplyChangesDomain sanity-checks that joins and leaves actually
// land in the report domain.
func TestApplyChangesDomain(t *testing.T) {
	in := deltaInputs(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	before, err := ctx.Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := churnDelta(t, in, 10, 10)
	if err := ctx.Apply(d); err != nil {
		t.Fatal(err)
	}
	after, err := ctx.Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != before.Len()+len(d.Joins)-len(d.Leaves) {
		t.Fatalf("domain size %d, want %d", after.Len(),
			before.Len()+len(d.Joins)-len(d.Leaves))
	}
	for _, j := range d.Joins {
		if _, ok := after.Lookup(Key{IXP: j.IXP, Iface: j.Iface}); !ok {
			t.Fatalf("joined membership %s/%s missing from report", j.IXP, j.Iface)
		}
	}
	for _, k := range d.Leaves {
		if _, ok := after.Lookup(k); ok {
			t.Fatalf("departed membership %v still in report", k)
		}
	}
}

// TestApplyValidation pins the all-or-nothing error contract.
func TestApplyValidation(t *testing.T) {
	in := deltaInputs(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	before, err := ctx.Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var knownIface netip.Addr
	var knownIXP string
	for ip, name := range in.Dataset.IfaceIXP {
		knownIface, knownIXP = ip, name
		break
	}
	offLAN := netip.MustParseAddr("203.0.113.200")
	// An address on some OTHER IXP's peering LAN, for the foreign-LAN
	// join case.
	var foreignLAN netip.Addr
	for p, name := range in.Dataset.PrefixIXP {
		if name != knownIXP && p.Addr().Is4() {
			foreignLAN = lastAddrIn(p)
			break
		}
	}

	bad := []Delta{
		{Joins: []Join{{IXP: knownIXP, Iface: knownIface, ASN: 4242}}},
		{Joins: []Join{{IXP: "no-such-ixp", Iface: knownIface, ASN: 4242}}},
		{Joins: []Join{{IXP: knownIXP, Iface: offLAN, ASN: 4242}}},
		{Joins: []Join{{IXP: knownIXP, Iface: foreignLAN, ASN: 4242}}},
		{Leaves: []Key{{IXP: knownIXP, Iface: offLAN}}},
		{Leaves: []Key{{IXP: "wrong-ixp", Iface: knownIface}}},
		{Ping: map[netip.Addr]pingsim.IfaceAgg{knownIface: {RTTMinMs: 5}}},  // no VP
		{Ping: map[netip.Addr]pingsim.IfaceAgg{knownIface: {RTTMinMs: -5}}}, // non-positive RTT
		{Ping: map[netip.Addr]pingsim.IfaceAgg{knownIface: {RTTMinMs: 0}}},
	}
	for i, d := range bad {
		if err := ctx.Apply(d); err == nil {
			t.Fatalf("bad delta %d accepted", i)
		}
	}
	after, err := ctx.Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "rejected deltas must not mutate", before, after)

	// A validated delta applies once, against the state it was checked
	// on: replaying its token after that state moved fails untouched.
	v, err := ctx.ValidateDelta(Delta{Leaves: []Key{{IXP: knownIXP, Iface: knownIface}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.ApplyValidated(v); err != nil {
		t.Fatal(err)
	}
	if before, err = ctx.Run(DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if err := ctx.ApplyValidated(v); err == nil {
		t.Fatal("a stale validated delta applied")
	}
	if after, err = ctx.Run(DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "a refused stale delta must not mutate", before, after)
}

// rttDelta refreshes the campaign minimum of n membership interfaces,
// sampled in address order with a stride, and revokes every third
// one's measurement — a partial re-campaign.
func rttDelta(t testing.TB, in Inputs, n, seed int) Delta {
	t.Helper()
	known := make([]netip.Addr, 0, len(in.Dataset.IfaceIXP))
	for ip := range in.Dataset.IfaceIXP {
		known = append(known, ip)
	}
	sort.Slice(known, func(i, j int) bool { return known[i].Less(known[j]) })
	vps := in.Ping.VPs
	d := Delta{Ping: make(map[netip.Addr]pingsim.IfaceAgg, n)}
	for k := 0; k < n; k++ {
		ip := known[(seed*31+k*97)%len(known)]
		if k%3 == 2 {
			d.Ping[ip] = pingsim.IfaceAgg{RTTMinMs: math.NaN()}
			continue
		}
		d.Ping[ip] = pingsim.IfaceAgg{
			RTTMinMs:     0.3 + float64((seed+k*13)%400)/4,
			BestVP:       vps[(seed+k)%len(vps)],
			BestRoundsUp: k%4 == 0,
		}
	}
	return d
}

// TestApplyDirtySetIsExact pins the dirty set Apply stamps to its
// definition over a seeded sequence of churn, re-join and RTT deltas:
// it must equal the members the direct sources mark (an interface
// joined or left, a ping override, a port) plus the members whose set
// of (near interface, IXP) crossing pairs changed, with the pair sets
// taken from a scan of the whole crossing plane before and after each
// delta. Members whose crossing rows only moved between pairs they
// keep must stay clean. After each delta's run, the near side Step 4
// reads per member (step4Evidence) must equal that scan too, counts
// included.
func TestApplyDirtySetIsExact(t *testing.T) {
	ctx := newContext(deltaInputs(t))
	if _, err := ctx.Run(DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	samePairs := func(a, b []traix.NearPair) bool {
		return slices.EqualFunc(a, b, func(x, y traix.NearPair) bool { return x.Near == y.Near && x.IXP == y.IXP })
	}
	rng := rand.New(rand.NewSource(24))
	var departed []Join
	byEvidence, movedOnly := 0, 0
	for step := 0; step < 12; step++ {
		in := ctx.Inputs()
		ds := in.Dataset
		var d Delta
		label := fmt.Sprintf("step %d", step)
		switch {
		case step%4 == 3:
			d = rttDelta(t, in, 20+rng.Intn(80), rng.Intn(1000))
			label += " (rtt)"
		case step%4 == 2 && len(departed) > 0:
			// Re-join what the last churn delta removed, every other
			// interface under a foreign AS.
			for i, j := range departed {
				if _, back := ds.IfaceIXP[j.Iface]; back {
					continue // a churn delta re-joined it as a hidden member
				}
				if i%2 == 1 {
					j.ASN = in.World.Members[rng.Intn(len(in.World.Members))].ASN
				}
				d.Joins = append(d.Joins, j)
			}
			departed = nil
			label += " (re-join)"
		default:
			d = churnDelta(t, in, 5+rng.Intn(30), 5+rng.Intn(30))
			label += " (churn)"
		}

		direct := map[ident.MemberID]bool{}
		markASN := func(asn netsim.ASN) {
			if m, ok := ctx.ids.Member(asn); ok {
				direct[m] = true
			}
		}
		for _, k := range d.Leaves {
			markASN(ds.IfaceASN[k.Iface])
			departed = append(departed, Join{IXP: k.IXP, Iface: k.Iface, ASN: ds.IfaceASN[k.Iface]})
		}
		was, _ := planePairs(t, label+" before", ctx)
		gen := ctx.gen
		if err := ctx.Apply(d); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, j := range d.Joins {
			markASN(j.ASN)
		}
		for ip := range d.Ping {
			if asn, ok := ds.IfaceASN[ip]; ok {
				markASN(asn)
			}
		}
		now, _ := planePairs(t, label+" after", ctx)

		want := map[ident.MemberID]bool{}
		for m := range direct {
			want[m] = true
		}
		seen := map[ident.MemberID]bool{}
		for _, side := range []map[ident.MemberID][]traix.NearPair{was, now} {
			for m := range side {
				if seen[m] {
					continue
				}
				seen[m] = true
				switch {
				case !samePairs(was[m], now[m]):
					if !direct[m] {
						byEvidence++
					}
					want[m] = true
				case !direct[m] && !slices.Equal(was[m], now[m]):
					movedOnly++
				}
			}
		}
		for _, m := range ctx.dirtySince(gen) {
			if !want[m] {
				t.Fatalf("%s: member %d is dirty, but no direct source marks it and its crossing pairs did not change", label, m)
			}
			delete(want, m)
		}
		for m := range want {
			t.Fatalf("%s: member %d is clean, but a direct source marks it or its crossing pairs changed", label, m)
		}

		if _, err := ctx.Run(DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		observed := 0
		groups, offRoster := ctx.memberships()
		for m := 0; m < ctx.ids.NumMembers(); m++ {
			nears, _ := ctx.step4Evidence(groups, offRoster, ident.MemberID(m), nil)
			if len(nears) == 0 {
				continue
			}
			observed++
			if w := now[ident.MemberID(m)]; !slices.Equal(nears, w) {
				t.Fatalf("%s: member %d observes %v, the plane scan %v", label, m, nears, w)
			}
		}
		if observed != len(now) {
			t.Fatalf("%s: %d members observe crossings, the plane scan has %d", label, observed, len(now))
		}
	}
	// Each half of the rule needs a case, or a mutation that drops the
	// crossing source or marks every moved member would pass.
	if byEvidence == 0 || movedOnly == 0 {
		t.Fatalf("%d members dirtied by crossing evidence alone, %d with rows moved between kept pairs; both must be > 0", byEvidence, movedOnly)
	}
	t.Logf("%d members dirtied by crossing evidence alone, %d kept clean with moved rows", byEvidence, movedOnly)
}

// runPath runs opt on ctx and reports which path it took: "incremental"
// (clean members copied from the base), "fallback" (a base existed but
// every row was classified) or "full" (no usable base).
func runPath(t *testing.T, ctx *Context, opt Options) (*Report, string) {
	t.Helper()
	inc0, fb0 := ctx.IncrementalRuns()
	rep, err := ctx.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	inc, fb := ctx.IncrementalRuns()
	switch {
	case inc == inc0+1 && fb == fb0:
		return rep, "incremental"
	case fb == fb0+1 && inc == inc0:
		return rep, "fallback"
	case inc == inc0 && fb == fb0:
		return rep, "full"
	}
	t.Fatalf("run moved the path counters by %d and %d", inc-inc0, fb-fb0)
	return nil, ""
}

// TestIncrementalRunMatchesColdRebuild holds the incremental run to the
// cold rebuild on its own path, not on its fallback: for every option
// variant, a context whose last run was that variant absorbs a churn
// delta, an RTT delta (refreshes and revocations), and two stacked
// deltas between runs (as log replay applies them). Each following run
// must re-classify only the dirty members — except traceroute-RTT runs,
// which always classify every row — and equal a cold context over the
// post-delta inputs.
func TestIncrementalRunMatchesColdRebuild(t *testing.T) {
	for name, opt := range optionVariants() {
		t.Run(name, func(t *testing.T) {
			in := deltaInputs(t)
			ctx := coldContext(t, in)
			if _, path := runPath(t, ctx, opt); path != "full" {
				t.Fatalf("first run took the %s path", path)
			}
			want := "incremental"
			if opt.UseTracerouteRTT {
				want = "full"
			}
			// Each delta is drawn from the inputs as the previous ones
			// left them.
			churn := func(n int) func() Delta {
				return func() Delta { return churnDelta(t, ctx.Inputs(), n, n) }
			}
			rtt := func(n, seed int) func() Delta {
				return func() Delta { return rttDelta(t, ctx.Inputs(), n, seed) }
			}
			steps := []struct {
				label  string
				deltas []func() Delta
			}{
				{"churn", []func() Delta{churn(12)}},
				{"rtt", []func() Delta{rtt(30, 5)}},
				{"stacked", []func() Delta{churn(6), rtt(12, 9)}},
			}
			for _, st := range steps {
				for _, d := range st.deltas {
					if err := ctx.Apply(d()); err != nil {
						t.Fatalf("%s: %v", st.label, err)
					}
				}
				got, path := runPath(t, ctx, opt)
				if path != want {
					t.Fatalf("%s: run took the %s path, want %s", st.label, path, want)
				}
				cold, err := coldContext(t, ctx.Inputs()).Run(opt)
				if err != nil {
					t.Fatal(err)
				}
				reportsEqual(t, st.label, cold, got)
			}
		})
	}
}

// TestIncrementalRunFallsBack pins the full-run fallback of a context
// that has a base: a delta whose dirty members pass the cutoff (a full
// re-campaign refreshes every measured interface). The run must still
// equal a cold rebuild.
func TestIncrementalRunFallsBack(t *testing.T) {
	in := deltaInputs(t)
	ctx := coldContext(t, in)
	opt := DefaultOptions()
	if _, err := ctx.Run(opt); err != nil {
		t.Fatal(err)
	}
	pcfg := pingsim.DefaultCampaign()
	pcfg.Seed = 99
	refresh := pingsim.Run(in.World, in.Ping.VPs, pcfg, 1)
	if err := ctx.Apply(Delta{Ping: pingsim.Overrides(refresh)}); err != nil {
		t.Fatal(err)
	}
	got, path := runPath(t, ctx, opt)
	if path != "fallback" {
		t.Fatalf("re-campaign run took the %s path, want fallback", path)
	}
	cold, err := coldContext(t, ctx.Inputs()).Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "re-campaign", cold, got)
}

// TestIncrementalCutoff pins the cutoff arithmetic: a run re-classifies
// incrementally exactly when the dirty members' rows are at most
// 1/incrementalCutoff of the domain.
func TestIncrementalCutoff(t *testing.T) {
	in := deltaInputs(t)
	ctx := coldContext(t, in)
	base, err := ctx.Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 200, 600, 1500} {
		if err := ctx.Apply(rttDelta(t, ctx.Inputs(), n, n)); err != nil {
			t.Fatal(err)
		}
		_, groups := ctx.domainGroups()
		var marks ident.Bits
		rows, ok := ctx.dirtyRows(base.gen, groups, &marks)
		want := 0
		for _, m := range ctx.dirtySince(base.gen) {
			want += len(groups.rowsOf(m))
		}
		if wantOK := want*incrementalCutoff <= len(groups.idx); ok != wantOK {
			t.Fatalf("%d overrides: %d of %d rows dirty, incremental = %v", n, want, len(groups.idx), ok)
		}
		if ok && len(rows) != want {
			t.Fatalf("%d overrides: %d rows listed, %d dirty", n, len(rows), want)
		}
		t.Logf("%d overrides: %d of %d rows dirty, incremental = %v", n, want, len(groups.idx), ok)
	}
}
