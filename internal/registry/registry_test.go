package registry

import (
	"math/rand"
	"net/netip"
	"testing"

	"rpeer/internal/netsim"
)

var cachedWorld *netsim.World

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

// buildSnapshot projects every IXP of the world into one source's
// snapshot, drawing from rng.
func buildSnapshot(w *netsim.World, src Source, rng *rand.Rand) *Snapshot {
	s := &Snapshot{Source: src, MinPortMbps: make(map[string]int)}
	for _, ix := range w.IXPs {
		snapshotIXP(s, w, ix, src, DefaultNoise(), rng)
	}
	return s
}

func TestBuildSnapshotCoverage(t *testing.T) {
	w := world(t)
	rng := rand.New(rand.NewSource(42))
	he := buildSnapshot(w, SrcHE, rng)
	pch := buildSnapshot(w, SrcPCH, rng)
	if len(he.Interfaces) <= len(pch.Interfaces) {
		t.Errorf("HE (%d ifaces) should cover far more than PCH (%d)", len(he.Interfaces), len(pch.Interfaces))
	}
	total := len(w.Members)
	if got := float64(len(he.Interfaces)) / float64(total); got < 0.85 || got > 1.0 {
		t.Errorf("HE coverage = %.2f, want ~0.94", got)
	}
	if got := float64(len(pch.Interfaces)) / float64(total); got < 0.1 || got > 0.35 {
		t.Errorf("PCH coverage = %.2f, want ~0.20", got)
	}
}

func TestWebsiteHasMinPort(t *testing.T) {
	w := world(t)
	rng := rand.New(rand.NewSource(42))
	web := buildSnapshot(w, SrcWebsite, rng)
	if len(web.MinPortMbps) == 0 {
		t.Fatal("website snapshot has no pricing data")
	}
	for name, min := range web.MinPortMbps {
		if min <= 0 {
			t.Errorf("IXP %s advertises min port %d", name, min)
		}
	}
	he := buildSnapshot(w, SrcHE, rng)
	if len(he.MinPortMbps) != 0 {
		t.Error("only websites provide pricing data")
	}
}

func TestMergePreferenceOrder(t *testing.T) {
	// Construct two tiny snapshots disagreeing on one interface: the
	// website record must win and the HE record must count as conflict.
	ip := mustAddr(t, "185.0.0.10")
	web := &Snapshot{Source: SrcWebsite, Interfaces: []InterfaceRecord{{IP: ip, ASN: 100, IXP: "X"}}}
	he := &Snapshot{Source: SrcHE, Interfaces: []InterfaceRecord{{IP: ip, ASN: 999, IXP: "X"}}}
	d := Merge([]*Snapshot{he, web}) // order of args must not matter
	if got := d.IfaceASN[ip]; got != 100 {
		t.Errorf("merged ASN = %d, want 100 (website wins)", got)
	}
	var heStats *SourceStats
	for i := range d.Stats {
		if d.Stats[i].Source == SrcHE {
			heStats = &d.Stats[i]
		}
	}
	if heStats == nil || heStats.ConflictInterfaces != 1 {
		t.Errorf("HE conflicts = %+v, want 1", heStats)
	}
}

func TestMergeTable1Shape(t *testing.T) {
	w := world(t)
	d := Build(w, DefaultNoise(), 42, 0)
	if len(d.Stats) != int(numSources) {
		t.Fatalf("stats rows = %d, want %d", len(d.Stats), numSources)
	}
	// Conflict rates must stay in the sub-percent Table 1 regime.
	for _, st := range d.Stats[1:] { // skip websites (baseline)
		if st.Interfaces == 0 {
			continue
		}
		rate := float64(st.ConflictInterfaces) / float64(st.Interfaces)
		if rate > 0.02 {
			t.Errorf("%s conflict rate %.4f too high", st.Source, rate)
		}
	}
	// Merged coverage must be near-total: every ground-truth interface
	// should be known thanks to HE's 94% + the other sources.
	known := 0
	for _, m := range w.Members {
		if _, ok := d.IfaceASN[m.Iface]; ok {
			known++
		}
	}
	if frac := float64(known) / float64(len(w.Members)); frac < 0.95 {
		t.Errorf("merged interface coverage %.3f, want >= 0.95", frac)
	}
}

func TestMergedMostlyAccurate(t *testing.T) {
	w := world(t)
	d := Build(w, DefaultNoise(), 42, 0)
	wrong := 0
	tot := 0
	for _, m := range w.Members {
		asn, ok := d.IfaceASN[m.Iface]
		if !ok {
			continue
		}
		tot++
		if asn != m.ASN {
			wrong++
		}
	}
	if rate := float64(wrong) / float64(tot); rate > 0.01 {
		t.Errorf("merged wrong-ASN rate = %.4f, want < 1%%", rate)
	}
}

func TestIXPOf(t *testing.T) {
	w := world(t)
	d := Build(w, DefaultNoise(), 42, 0)
	ix := w.IXPs[0]
	m := w.MembersOf(ix.ID)[0]
	name, ok := d.IXPOf(m.Iface)
	if !ok {
		t.Fatalf("IXPOf(%v) found nothing", m.Iface)
	}
	if name != ix.Name {
		t.Errorf("IXPOf = %q, want %q", name, ix.Name)
	}
	if _, ok := d.IXPOf(mustAddr(t, "8.8.8.8")); ok {
		t.Error("IXPOf matched a non-IXP address")
	}
}

func TestMembersOfSortedAndComplete(t *testing.T) {
	w := world(t)
	d := Build(w, DefaultNoise(), 42, 0)
	ix := w.LargestIXPs(1)[0]
	recs := d.MembersOf(ix.Name)
	if len(recs) < len(w.MembersOf(ix.ID))*9/10 {
		t.Errorf("only %d of %d members known", len(recs), len(w.MembersOf(ix.ID)))
	}
	for i := 1; i < len(recs); i++ {
		if !recs[i-1].IP.Less(recs[i].IP) {
			t.Fatal("MembersOf not sorted by IP")
		}
	}
}

func TestColoDBFig5Shape(t *testing.T) {
	w := world(t)
	db := BuildColo(w, DefaultColoNoise(), 42)

	var remoteNoData, remoteCommon, remoteTotal int
	var localNoCommon, localTotal int
	for _, ix := range w.IXPs {
		for _, m := range w.MembersOf(ix.ID) {
			common, has := db.CommonWithIXP(m.ASN, ix.Name)
			if m.Remote() {
				remoteTotal++
				if !has {
					remoteNoData++
				} else if len(common) > 0 {
					remoteCommon++
				}
			} else {
				localTotal++
				if has && len(common) == 0 {
					localNoCommon++
				}
			}
		}
	}
	// Fig 5: ~18% of remote peers without data; ~5% with one common
	// facility; locals almost always share a facility with the IXP.
	if frac := float64(remoteNoData) / float64(remoteTotal); frac < 0.08 || frac > 0.35 {
		t.Errorf("remote no-data fraction = %.2f, want ~0.18", frac)
	}
	if frac := float64(remoteCommon) / float64(remoteTotal); frac < 0.02 || frac > 0.30 {
		t.Errorf("remote common-facility fraction = %.2f, want ~0.05-0.20", frac)
	}
	if frac := float64(localNoCommon) / float64(localTotal); frac > 0.15 {
		t.Errorf("locals lacking a common facility = %.2f, want small", frac)
	}
}

func TestColoDBDeterministic(t *testing.T) {
	w := world(t)
	a := BuildColo(w, DefaultColoNoise(), 7)
	b := BuildColo(w, DefaultColoNoise(), 7)
	if len(a.ASFacilities) != len(b.ASFacilities) {
		t.Fatal("colo DB not deterministic")
	}
	for asn, fa := range a.ASFacilities {
		fb := b.ASFacilities[asn]
		if len(fa) != len(fb) {
			t.Fatalf("AS%d records differ", asn)
		}
		for i := range fa {
			if fa[i] != fb[i] {
				t.Fatalf("AS%d facility %d differs", asn, i)
			}
		}
	}
}

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestIPMapBucketsMatchFullSearch holds ASOf's bucketed search to a
// search over every prefix: at each prefix's first and last address,
// one past either end, the /16 boundaries around them, and random
// addresses in and around the infrastructure pool.
func TestIPMapBucketsMatchFullSearch(t *testing.T) {
	m := BuildIPMap(world(t))
	full := func(u uint32) (netsim.ASN, bool) {
		for i := range m.base {
			if m.base[i] <= u && u <= m.last[i] {
				return m.asn[i], true
			}
		}
		return 0, false
	}
	var probes []uint32
	for i := range m.base {
		b, l := m.base[i], m.last[i]
		probes = append(probes, b, l, b-1, l+1, b&^0xffff, b&^0xffff-1, l|0xffff, l|0xffff+1)
	}
	rng := rand.New(rand.NewSource(1))
	for range 20000 {
		probes = append(probes, m.base[0]&^0xffffff+uint32(rng.Int63n(1<<28)), rng.Uint32())
	}
	probes = append(probes, 0, 1<<32-1)
	hits := 0
	for _, u := range probes {
		ip := netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
		gotAS, gotOK := m.ASOf(ip)
		wantAS, wantOK := full(u)
		if gotAS != wantAS || gotOK != wantOK {
			t.Fatalf("ASOf(%v) = (%d, %v), full search (%d, %v)", ip, gotAS, gotOK, wantAS, wantOK)
		}
		if gotOK {
			hits++
		}
	}
	if hits < len(m.base) {
		t.Fatalf("only %d of %d probes hit a prefix", hits, len(probes))
	}
}
