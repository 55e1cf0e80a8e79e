package alias

import (
	"net/netip"
	"testing"

	"rpeer/internal/ip4"
	"rpeer/internal/netsim"
)

var cw *netsim.World

func world(t testing.TB) *netsim.World {
	t.Helper()
	if cw == nil {
		w, err := netsim.Generate(netsim.DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cw = w
	}
	return cw
}

// addrs returns interface words as addresses.
func addrs(ws []uint32) []netip.Addr {
	out := make([]netip.Addr, len(ws))
	for i, w := range ws {
		out[i] = ip4.Addr(w)
	}
	return out
}

// multiIfaceRouter finds a router with >= n interfaces and a usable
// counter.
func multiIfaceRouter(t *testing.T, w *netsim.World, p *Prober, n int, skip int) *netsim.Router {
	t.Helper()
	for _, id := range w.RouterIDs {
		r := w.Router(id)
		if len(r.Ifaces) >= n && p.usableCounter(r) {
			if skip == 0 {
				return r
			}
			skip--
		}
	}
	t.Skip("no suitable router")
	return nil
}

func TestProbeSharedCounter(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	r := multiIfaceRouter(t, w, p, 2, 0)
	id1, ok1 := p.Probe(ip4.Addr(r.Ifaces[0]), 0)
	id2, ok2 := p.Probe(ip4.Addr(r.Ifaces[1]), 1)
	if !ok1 || !ok2 {
		t.Skip("probe loss")
	}
	// One second apart on a shared counter: the delta must be near the
	// router's rate.
	diff := int(id2) - int(id1)
	if diff < 0 {
		diff += 65536
	}
	if float64(diff) > r.IPIDRate+20 {
		t.Errorf("counter delta %d for rate %.0f", diff, r.IPIDRate)
	}
}

func TestProbeUnknownInterface(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	if _, ok := p.Probe(netip.MustParseAddr("203.0.113.7"), 0); ok {
		t.Error("unknown interface produced usable reply")
	}
}

func TestResolveGroupsSameRouter(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	r := multiIfaceRouter(t, w, p, 3, 0)
	res := NewResolver(p, ModePrecision)
	clusters := res.Resolve(addrs(r.Ifaces[:3]))
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d, want 1 (all interfaces share the router)", len(clusters))
	}
	if len(clusters[0]) != 3 {
		t.Fatalf("cluster size = %d, want 3", len(clusters[0]))
	}
}

func TestResolveSeparatesDifferentRouters(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	r1 := multiIfaceRouter(t, w, p, 2, 0)
	r2 := multiIfaceRouter(t, w, p, 2, 1)
	res := NewResolver(p, ModePrecision)
	in := addrs([]uint32{r1.Ifaces[0], r1.Ifaces[1], r2.Ifaces[0], r2.Ifaces[1]})
	clusters := res.Resolve(in)

	// The two routers must never be merged in precision mode.
	idx := make(map[netip.Addr]int)
	for ci, c := range clusters {
		for _, ip := range c {
			idx[ip] = ci
		}
	}
	if idx[ip4.Addr(r1.Ifaces[0])] == idx[ip4.Addr(r2.Ifaces[0])] {
		t.Errorf("precision mode merged two distinct routers (rates %.1f vs %.1f)", r1.IPIDRate, r2.IPIDRate)
	}
}

func TestResolvePrecisionAccuracyAtScale(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	res := NewResolver(p, ModePrecision)

	// Take interfaces from many routers of one AS-like pool and check
	// pairwise precision: no cluster may span routers.
	var ifaces []netip.Addr
	truth := make(map[netip.Addr]netsim.RouterID)
	count := 0
	for _, id := range w.RouterIDs {
		r := w.Router(id)
		if len(r.Ifaces) < 2 {
			continue
		}
		for _, ip := range addrs(r.Ifaces[:2]) {
			ifaces = append(ifaces, ip)
			truth[ip] = id
		}
		count++
		if count >= 40 {
			break
		}
	}
	clusters := res.Resolve(ifaces)
	falseMerges := 0
	resolvedPairs := 0
	for _, c := range clusters {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				resolvedPairs++
				if truth[c[i]] != truth[c[j]] {
					falseMerges++
				}
			}
		}
	}
	if resolvedPairs == 0 {
		t.Fatal("nothing resolved")
	}
	if rate := float64(falseMerges) / float64(resolvedPairs); rate > 0.02 {
		t.Errorf("false-alias rate = %.3f over %d pairs, want <= 0.02", rate, resolvedPairs)
	}
}

func TestCoverageModeResolvesMore(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	var ifaces []netip.Addr
	count := 0
	for _, id := range w.RouterIDs {
		r := w.Router(id)
		if len(r.Ifaces) >= 2 {
			ifaces = append(ifaces, addrs(r.Ifaces[:2])...)
			count++
		}
		if count >= 30 {
			break
		}
	}
	nonSingleton := func(cs [][]netip.Addr) int {
		n := 0
		for _, c := range cs {
			if len(c) > 1 {
				n += len(c)
			}
		}
		return n
	}
	prec := nonSingleton(NewResolver(p, ModePrecision).Resolve(ifaces))
	cov := nonSingleton(NewResolver(p, ModeCoverage).Resolve(ifaces))
	if cov < prec {
		t.Errorf("coverage mode resolved %d ifaces vs precision %d; want >=", cov, prec)
	}
}

func TestResolveDeterministic(t *testing.T) {
	w := world(t)
	var ifaces []netip.Addr
	for _, id := range w.RouterIDs[:20] {
		ifaces = append(ifaces, addrs(w.Router(id).Ifaces)...)
	}
	a := NewResolver(NewProber(w, 9), ModePrecision).Resolve(ifaces)
	b := NewResolver(NewProber(w, 9), ModePrecision).Resolve(ifaces)
	if len(a) != len(b) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("cluster %d sizes differ", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("cluster %d member %d differs", i, j)
			}
		}
	}
}

func TestTransitivityProperty(t *testing.T) {
	// Union-find output must be a partition: every input interface in
	// exactly one cluster.
	w := world(t)
	var ifaces []netip.Addr
	for _, id := range w.RouterIDs[:30] {
		ifaces = append(ifaces, addrs(w.Router(id).Ifaces)...)
	}
	clusters := NewResolver(NewProber(w, 9), ModeCoverage).Resolve(ifaces)
	seen := make(map[netip.Addr]int)
	for _, c := range clusters {
		for _, ip := range c {
			seen[ip]++
		}
	}
	if len(seen) != len(uniqueAddrs(ifaces)) {
		t.Fatalf("partition covers %d ifaces, want %d", len(seen), len(uniqueAddrs(ifaces)))
	}
	for ip, n := range seen {
		if n != 1 {
			t.Fatalf("interface %v appears in %d clusters", ip, n)
		}
	}
}

func uniqueAddrs(in []netip.Addr) map[netip.Addr]bool {
	m := make(map[netip.Addr]bool, len(in))
	for _, ip := range in {
		m[ip] = true
	}
	return m
}
