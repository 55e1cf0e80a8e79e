package pingsim

import (
	"math"
	"testing"

	"rpeer/internal/netsim"
)

var cachedWorld *netsim.World
var cachedResult *Result

func world(t testing.TB) *netsim.World {
	t.Helper()
	if cachedWorld == nil {
		w, err := netsim.Generate(netsim.DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cachedWorld = w
	}
	return cachedWorld
}

func campaign(t testing.TB) (*netsim.World, *Result) {
	t.Helper()
	w := world(t)
	if cachedResult == nil {
		vps := DeriveVPs(w, 11)
		cachedResult = Run(w, vps, DefaultCampaign(), 1)
	}
	return w, cachedResult
}

func TestDeriveVPs(t *testing.T) {
	w := world(t)
	vps := DeriveVPs(w, 11)
	if len(vps) < 20 {
		t.Fatalf("only %d VPs derived", len(vps))
	}
	lgs, atlas := 0, 0
	ids := make(map[int]bool)
	for _, vp := range vps {
		if ids[vp.ID] {
			t.Fatalf("duplicate VP id %d", vp.ID)
		}
		ids[vp.ID] = true
		switch vp.Kind {
		case KindLG:
			lgs++
			if !vp.SrcIP.IsValid() {
				t.Error("LG without source IP")
			}
			ix := w.IXP(vp.IXP)
			if !ix.PeeringLAN.Contains(vp.SrcIP) {
				t.Errorf("LG source %v outside peering LAN of %s", vp.SrcIP, ix.Name)
			}
		case KindAtlas:
			atlas++
		}
	}
	if lgs == 0 || atlas == 0 {
		t.Fatalf("lgs=%d atlas=%d, want both > 0", lgs, atlas)
	}
}

func TestRouteServerFilterDropsMgmtProbes(t *testing.T) {
	_, res := campaign(t)
	usable := make(map[int]bool)
	for _, vp := range res.UsableVPs {
		usable[vp.ID] = true
	}
	for _, vp := range res.VPs {
		rs := res.RouteServerRTT[vp.ID]
		if vp.mgmtLAN && usable[vp.ID] {
			t.Errorf("management-LAN probe %d (rsRTT=%.2f) classified usable", vp.ID, rs)
		}
		if vp.dead && usable[vp.ID] {
			t.Errorf("dead probe %d classified usable", vp.ID)
		}
		if usable[vp.ID] && !(rs < 1.0) {
			t.Errorf("usable VP %d has route-server RTT %.2f >= 1ms", vp.ID, rs)
		}
	}
	if len(res.UsableVPs) < 10 {
		t.Fatalf("only %d usable VPs", len(res.UsableVPs))
	}
}

func TestResponseRatesByKind(t *testing.T) {
	_, res := campaign(t)
	type acc struct{ resp, tot int }
	var lg, at acc
	for _, vp := range res.VPs {
		if vp.dead {
			continue
		}
		for _, m := range res.ByVP[vp.ID] {
			if vp.Kind == KindLG {
				lg.tot++
				if m.Responsive() {
					lg.resp++
				}
			} else {
				at.tot++
				if m.Responsive() {
					at.resp++
				}
			}
		}
	}
	lgRate := float64(lg.resp) / float64(lg.tot)
	atRate := float64(at.resp) / float64(at.tot)
	// Table 5: LGs ~95% responsive targets, Atlas ~75%.
	if lgRate < 0.90 || lgRate > 0.99 {
		t.Errorf("LG response rate = %.3f, want ~0.95", lgRate)
	}
	if atRate < 0.65 || atRate > 0.85 {
		t.Errorf("Atlas response rate = %.3f, want ~0.75", atRate)
	}
	if atRate >= lgRate {
		t.Error("Atlas response rate should be below LG rate")
	}
}

func TestTTLFiltersFire(t *testing.T) {
	_, res := campaign(t)
	filtered, tot := 0, 0
	for _, ms := range res.ByVP {
		for _, m := range ms {
			if !m.Responsive() {
				continue
			}
			tot++
			if m.FilteredTTL {
				filtered++
			}
		}
	}
	frac := float64(filtered) / float64(tot)
	if frac == 0 {
		t.Error("TTL filters never fired; noise model broken")
	}
	if frac > 0.10 {
		t.Errorf("TTL filters dropped %.2f of pairs, want a few percent", frac)
	}
}

func TestMinRTTSanityAgainstGroundTruth(t *testing.T) {
	w, res := campaign(t)
	rtts := res.MinRTTByIface()
	if len(rtts) < 2000 {
		t.Fatalf("only %d interfaces measured", len(rtts))
	}
	// Locals at the VP's IXP should overwhelmingly be fast; remotes via
	// distant homes should often exceed 2ms (Fig 1b shape).
	var localOver2, locals, remoteOver2, remotes int
	byIface := make(map[string]*netsim.Member)
	for _, m := range w.Members {
		byIface[m.Iface.String()] = m
	}
	for ip, rtt := range rtts {
		m := byIface[ip.String()]
		if m == nil {
			t.Fatalf("measured unknown interface %v", ip)
		}
		if math.IsNaN(rtt) || rtt < 0 {
			t.Fatalf("bad RTT %v for %v", rtt, ip)
		}
		if m.Remote() {
			remotes++
			if rtt > 2 {
				remoteOver2++
			}
		} else {
			locals++
			if rtt > 2 {
				localOver2++
			}
		}
	}
	if locals == 0 || remotes == 0 {
		t.Fatal("campaign missed a whole class")
	}
	// Locals above 2ms exist only at wide-area IXPs; keep it a small
	// minority. Remotes above 2ms must be the majority.
	if frac := float64(localOver2) / float64(locals); frac > 0.25 {
		t.Errorf("%.2f of locals above 2ms, want < 0.25", frac)
	}
	if frac := float64(remoteOver2) / float64(remotes); frac < 0.5 {
		t.Errorf("only %.2f of remotes above 2ms", frac)
	}
}

func TestLGRoundingYieldsIntegers(t *testing.T) {
	_, res := campaign(t)
	checked := 0
	for _, vp := range res.UsableVPs {
		if vp.Kind != KindLG || !vp.RoundsUp {
			continue
		}
		for _, m := range res.ByVP[vp.ID] {
			if !m.Usable() {
				continue
			}
			if m.RTTMinMs != math.Trunc(m.RTTMinMs) {
				t.Fatalf("rounding LG reported fractional RTT %v", m.RTTMinMs)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no rounding LG in this seed")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	w := world(t)
	vps1 := DeriveVPs(w, 3)
	vps2 := DeriveVPs(w, 3)
	r1 := Run(w, vps1, DefaultCampaign(), 1)
	r2 := Run(w, vps2, DefaultCampaign(), 1)
	m1 := r1.MinRTTByIface()
	m2 := r2.MinRTTByIface()
	if len(m1) != len(m2) {
		t.Fatalf("determinism: %d vs %d interfaces", len(m1), len(m2))
	}
	for ip, v1 := range m1 {
		if v2 := m2[ip]; v1 != v2 {
			t.Fatalf("determinism: %v: %v vs %v", ip, v1, v2)
		}
	}
}

func BenchmarkCampaign(b *testing.B) {
	w := world(b)
	vps := DeriveVPs(w, 11)
	cfg := DefaultCampaign()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(w, vps, cfg, 1)
	}
}

func TestRunParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	w := world(t)
	vps := DeriveVPs(w, 11)
	cfg := DefaultCampaign()
	r1 := Run(w, vps, cfg, 1)
	r8 := Run(w, vps, cfg, 8)
	m1 := r1.MinRTTByIface()
	m8 := r8.MinRTTByIface()
	if len(m1) == 0 || len(m1) != len(m8) {
		t.Fatalf("interface counts differ: %d vs %d", len(m1), len(m8))
	}
	for ip, v1 := range m1 {
		if v8, ok := m8[ip]; !ok || v1 != v8 {
			t.Fatalf("worker-count dependence at %v: %v vs %v", ip, v1, v8)
		}
	}
	if len(r1.UsableVPs) != len(r8.UsableVPs) {
		t.Fatal("usable VP sets differ")
	}
	for i := range r1.UsableVPs {
		if r1.UsableVPs[i].ID != r8.UsableVPs[i].ID {
			t.Fatal("usable VP order differs")
		}
	}
}

func TestRunIdenticalToRunParallel(t *testing.T) {
	// Every pair draws from its own hashed stream, so the one-worker
	// campaign must be bit-identical to a GOMAXPROCS one, per
	// measurement, not just in distribution.
	w := world(t)
	vps := DeriveVPs(w, 11)
	cfg := DefaultCampaign()
	seq := Run(w, vps, cfg, 1)
	par := Run(w, vps, cfg, 0)
	if len(seq.UsableVPs) != len(par.UsableVPs) {
		t.Fatalf("usable VPs differ: %d vs %d", len(seq.UsableVPs), len(par.UsableVPs))
	}
	for vpID, sms := range seq.ByVP {
		pms := par.ByVP[vpID]
		if len(sms) != len(pms) {
			t.Fatalf("VP %d: measurement counts differ: %d vs %d", vpID, len(sms), len(pms))
		}
		for i := range sms {
			s, p := sms[i], pms[i]
			sameRTT := s.RTTMinMs == p.RTTMinMs ||
				(math.IsNaN(s.RTTMinMs) && math.IsNaN(p.RTTMinMs))
			if s.Iface != p.Iface || !sameRTT || s.Replies != p.Replies ||
				s.FilteredTTL != p.FilteredTTL {
				t.Fatalf("VP %d measurement %d differs: %+v vs %+v", vpID, i, s, p)
			}
		}
		if seq.RouteServerRTT[vpID] != par.RouteServerRTT[vpID] &&
			!(math.IsNaN(seq.RouteServerRTT[vpID]) && math.IsNaN(par.RouteServerRTT[vpID])) {
			t.Fatalf("VP %d route-server RTT differs", vpID)
		}
	}
}
