package traix

import (
	"net/netip"
	"testing"

	"rpeer/internal/ip4"
	"rpeer/internal/netsim"
	"rpeer/internal/registry"
)

var (
	cw  *netsim.World
	cds *registry.Dataset
	cim *registry.IPMap
)

func fixtures(t testing.TB) (*netsim.World, *registry.Dataset, *registry.IPMap) {
	t.Helper()
	if cw == nil {
		w, err := netsim.Generate(netsim.DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cw = w
		cds = registry.Build(w, registry.DefaultNoise(), 42, 0)
		cim = registry.BuildIPMap(w)
	}
	return cw, cds, cim
}

// onePath returns a corpus of one path over hops, with the given hop
// RTTs (0 for the hops past them).
func onePath(hops []netip.Addr, rtts ...float64) *Paths {
	p := &Paths{}
	p.Add(0, netip.Addr{})
	for i, h := range hops {
		rtt := 0.0
		if i < len(rtts) {
			rtt = rtts[i]
		}
		p.AddHop(h, rtt)
	}
	return p
}

// member returns the i-th ground-truth member of the IXP that is known
// to the merged dataset.
func knownMember(t *testing.T, w *netsim.World, ds *registry.Dataset, ix *netsim.IXP, skip int) *netsim.Member {
	t.Helper()
	for _, m := range w.MembersOf(ix.ID) {
		if asn, ok := ds.IfaceASN[m.Iface]; ok && asn == m.ASN {
			if skip == 0 {
				return m
			}
			skip--
		}
	}
	t.Fatal("no member known to dataset")
	return nil
}

func TestDetectCrossing(t *testing.T) {
	w, ds, im := fixtures(t)
	ix := w.LargestIXPs(1)[0]
	near := knownMember(t, w, ds, ix, 0)
	far := knownMember(t, w, ds, ix, 1)
	nearR := w.Router(near.Router)
	farInterior := w.ASPrefixes(far.ASN)[0].Addr().Next()

	p := onePath([]netip.Addr{ip4.Addr(nearR.Ifaces[0]), far.Iface, farInterior}, 10, 11, 11.5)
	d := NewDetector(ds, im)
	got := d.Detect(p, 0)
	if len(got) != 1 {
		t.Fatalf("crossings = %d, want 1", len(got))
	}
	c := got[0]
	if c.IXP != ix.Name || c.NearAS != near.ASN || c.FarAS != far.ASN {
		t.Errorf("crossing = %+v, want %s near=%d far=%d", c, ix.Name, near.ASN, far.ASN)
	}
	if c.NearIP != ip4.Addr(nearR.Ifaces[0]) || c.IXPIP != far.Iface {
		t.Error("crossing IPs wrong")
	}
}

func TestDetectRejectsWrongFarAS(t *testing.T) {
	w, ds, im := fixtures(t)
	ix := w.LargestIXPs(1)[0]
	near := knownMember(t, w, ds, ix, 0)
	far := knownMember(t, w, ds, ix, 1)
	other := knownMember(t, w, ds, ix, 2)
	nearR := w.Router(near.Router)
	// Hop after the IXP IP belongs to a third AS: rule 1 fails.
	p := onePath([]netip.Addr{ip4.Addr(nearR.Ifaces[0]), far.Iface, w.ASPrefixes(other.ASN)[0].Addr().Next()})
	d := NewDetector(ds, im)
	if got := d.Detect(p, 0); len(got) != 0 {
		t.Errorf("crossings = %d, want 0 (far-AS mismatch)", len(got))
	}
}

func TestDetectRejectsSameNearAS(t *testing.T) {
	w, ds, im := fixtures(t)
	ix := w.LargestIXPs(1)[0]
	far := knownMember(t, w, ds, ix, 1)
	interior := w.ASPrefixes(far.ASN)[0].Addr().Next()
	// Near hop in the same AS as the IXP interface: rule 2 fails.
	p := onePath([]netip.Addr{interior, far.Iface, interior.Next()})
	d := NewDetector(ds, im)
	if got := d.Detect(p, 0); got != nil {
		t.Errorf("crossings = %v, want none (near AS == far AS)", got)
	}
}

func TestDetectRejectsTrailingIXPHop(t *testing.T) {
	w, ds, im := fixtures(t)
	ix := w.LargestIXPs(1)[0]
	near := knownMember(t, w, ds, ix, 0)
	far := knownMember(t, w, ds, ix, 1)
	p := onePath([]netip.Addr{ip4.Addr(w.Router(near.Router).Ifaces[0]), far.Iface})
	d := NewDetector(ds, im)
	if got := d.Detect(p, 0); len(got) != 0 {
		t.Error("crossing accepted without far-side confirmation")
	}
}

func TestDetectPrivate(t *testing.T) {
	w, ds, im := fixtures(t)
	if len(w.Private) == 0 {
		t.Fatal("no private links in world")
	}
	pl := w.Private[0]
	p := onePath([]netip.Addr{ip4.Addr(pl.AIface), ip4.Addr(pl.BIface)})
	d := NewDetector(ds, im)
	got := d.DetectPrivate(p, 0)
	if len(got) != 1 {
		t.Fatalf("private hops = %d, want 1", len(got))
	}
	aOwner := w.Router(pl.A).Owner
	bOwner := w.Router(pl.B).Owner
	if got[0].AAS != aOwner || got[0].BAS != bOwner {
		t.Errorf("private ASes = (%d,%d), want (%d,%d)", got[0].AAS, got[0].BAS, aOwner, bOwner)
	}
}

func TestDetectPrivateSkipsIXPLAN(t *testing.T) {
	w, ds, im := fixtures(t)
	ix := w.LargestIXPs(1)[0]
	near := knownMember(t, w, ds, ix, 0)
	far := knownMember(t, w, ds, ix, 1)
	p := onePath([]netip.Addr{
		ip4.Addr(w.Router(near.Router).Ifaces[0]),
		far.Iface, // peering LAN: not private
	})
	d := NewDetector(ds, im)
	if got := d.DetectPrivate(p, 0); len(got) != 0 {
		t.Error("IXP LAN hop misclassified as private interconnection")
	}
}

func TestIPMapRoundTrip(t *testing.T) {
	w, _, im := fixtures(t)
	checked := 0
	for _, asn := range w.ASNs[:200] {
		for _, p := range w.ASPrefixes(asn) {
			got, ok := im.ASOf(p.Addr().Next())
			if !ok || got != asn {
				t.Fatalf("ASOf(%v) = (%d,%v), want %d", p.Addr().Next(), got, ok, asn)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no prefixes checked")
	}
	if _, ok := im.ASOf(netip.MustParseAddr("9.9.9.9")); ok {
		t.Error("unknown address resolved")
	}
}
