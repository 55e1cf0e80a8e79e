package alias

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"rpeer/internal/ident"
	"rpeer/internal/netsim"
)

// fuzzPool is the interface pool FuzzResolvePlane draws from: the
// interfaces of a tiny world's multi-interface routers, grouped per
// router (so low pick indexes hit whole routers), then addresses no
// router owns. plane is a probe plane over the same pool in a
// scrambled slot order, the way core interns interfaces: slot order is
// not address order, and the plane is covered in two steps.
type fuzzPool struct {
	prober *Prober
	pool   []netip.Addr
	slotOf []ident.IfaceID
	plane  *Plane
}

var (
	fuzzOnce sync.Once
	fuzzFix  *fuzzPool
	fuzzErr  error
)

func fuzzFixture(t testing.TB) *fuzzPool {
	t.Helper()
	fuzzOnce.Do(func() {
		w, err := netsim.Generate(netsim.TinyConfig(), 0)
		if err != nil {
			fuzzErr = err
			return
		}
		fx := &fuzzPool{prober: NewProber(w, 9)}
		for _, id := range w.RouterIDs {
			if r := w.Router(id); len(r.Ifaces) >= 2 {
				fx.pool = append(fx.pool, addrs(r.Ifaces)...)
			}
			if len(fx.pool) >= 400 {
				break
			}
		}
		for i := 0; i < 16; i++ {
			fx.pool = append(fx.pool, netip.AddrFrom4([4]byte{203, 0, 113, byte(i)}))
		}
		// Slot order: a stride permutation of the pool.
		n := len(fx.pool)
		stride := 7
		for n%stride == 0 {
			stride += 2
		}
		col := make([]netip.Addr, n)
		fx.slotOf = make([]ident.IfaceID, n)
		for k := range fx.pool {
			slot := (k * stride) % n
			col[slot] = fx.pool[k]
			fx.slotOf[k] = ident.IfaceID(slot)
		}
		fx.plane = NewPlane(fx.prober)
		fx.plane.Cover(ident.AddrsOf(col[:n/2]))
		fx.plane.Cover(ident.AddrsOf(col))
		fuzzFix = fx
	})
	if fuzzErr != nil {
		t.Fatal(fuzzErr)
	}
	return fuzzFix
}

// picks decodes a fuzz input into pool indexes, two bytes per pick.
func (fx *fuzzPool) picks(data []byte) []int {
	var out []int
	for i := 0; i+1 < len(data) && len(out) < 96; i += 2 {
		out = append(out, (int(data[i])|int(data[i+1])<<8)%len(fx.pool))
	}
	return out
}

// planeResolve resolves pool picks on the shared plane the way core
// does: distinct slots in ascending address order.
func (fx *fuzzPool) planeResolve(mode Mode, picks []int) [][]netip.Addr {
	slots := make([]ident.IfaceID, 0, len(picks))
	addrOf := make(map[ident.IfaceID]netip.Addr, len(picks))
	for _, k := range picks {
		s := fx.slotOf[k]
		if _, dup := addrOf[s]; !dup {
			addrOf[s] = fx.pool[k]
			slots = append(slots, s)
		}
	}
	slices.SortFunc(slots, func(a, b ident.IfaceID) int { return addrOf[a].Compare(addrOf[b]) })
	addrs := make([]netip.Addr, len(slots))
	for i, s := range slots {
		addrs[i] = addrOf[s]
	}
	return Sets(addrs, fx.plane.Resolve(mode, slots))
}

func checkPlaneMatchesOracle(t *testing.T, fx *fuzzPool, picks []int) {
	t.Helper()
	addrs := make([]netip.Addr, len(picks))
	for i, k := range picks {
		addrs[i] = fx.pool[k]
	}
	for _, mode := range []Mode{ModePrecision, ModeCoverage} {
		want := oracleResolve(fx.prober, mode, addrs)
		if got := NewResolver(fx.prober, mode).Resolve(addrs); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%v: Resolver = %v, oracle = %v", mode, got, want)
		}
		if got := fx.planeResolve(mode, picks); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%v: shared plane = %v, oracle = %v", mode, got, want)
		}
	}
}

// FuzzResolvePlane checks the probe plane against the sample-series
// oracle on arbitrary interface subsets of a tiny world: duplicates,
// mixed routers, unusable counters and router-less addresses, in both
// modes, through both a per-call plane and a shared scrambled one.
func FuzzResolvePlane(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 5, 0, 144, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fx := fuzzFixture(t)
		checkPlaneMatchesOracle(t, fx, fx.picks(data))
	})
}

// TestPlaneMatchesOracleOnWindows sweeps fixed windows of the pool
// (whole routers plus their neighbours) so the equivalence holds in
// every test run, not only under -fuzz.
func TestPlaneMatchesOracleOnWindows(t *testing.T) {
	fx := fuzzFixture(t)
	for lo := 0; lo < len(fx.pool); lo += 24 {
		var picks []int
		for k := lo; k < lo+40 && k < len(fx.pool); k++ {
			picks = append(picks, k, len(fx.pool)-1-k)
		}
		t.Run(fmt.Sprint(lo), func(t *testing.T) { checkPlaneMatchesOracle(t, fx, picks) })
	}
}

// TestPlaneMatchesOracleAtScale compares the two resolvers over the
// default world's first routers in one large set, where chance velocity
// matches between routers are common.
func TestPlaneMatchesOracleAtScale(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	var ifaces []netip.Addr
	for _, id := range w.RouterIDs[:300] {
		ifaces = append(ifaces, addrs(w.Router(id).Ifaces)...)
	}
	for _, mode := range []Mode{ModePrecision, ModeCoverage} {
		want := oracleResolve(p, mode, ifaces)
		if got := NewResolver(p, mode).Resolve(ifaces); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%v: plane and oracle clusters differ", mode)
		}
		if len(want) >= len(ifaces)-1 {
			t.Fatalf("%v: %d clusters over %d interfaces; the comparison needs aliases", mode, len(want), len(ifaces))
		}
	}
}

// TestPlaneSamplesMatchProbe holds the plane's two-bit sample storage
// to the per-sample oracle: over every router interface of the default
// world, every replying round rebuilds to the IP-ID Prober.Probe
// returns for it, and every other round is one Probe finds no usable
// reply in.
func TestPlaneSamplesMatchProbe(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	var ifaces []netip.Addr
	for _, id := range w.RouterIDs {
		ifaces = append(ifaces, addrs(w.Router(id).Ifaces)...)
	}
	pl := NewPlane(p)
	pl.Cover(ident.AddrsOf(ifaces))
	c := pl.cols.Load()
	replies := 0
	for slot, addr := range ifaces {
		s := ident.IfaceID(slot)
		for i, at := range probeTimes[c.off[s]] {
			want, ok := p.Probe(addr, at)
			if c.mask[s]>>i&1 == 0 {
				if ok {
					t.Fatalf("%v round %d: Probe replied, the plane has no reply", addr, i)
				}
				continue
			}
			if !ok {
				t.Fatalf("%v round %d: the plane has a reply, Probe has none", addr, i)
			}
			if got := c.sample(s, i, at); got != want {
				t.Fatalf("%v round %d: plane rebuilds IP-ID %d, Probe returns %d", addr, i, got, want)
			}
			replies++
		}
	}
	if replies < 100*len(ifaces)/10 {
		t.Fatalf("only %d replying rounds over %d interfaces", replies, len(ifaces))
	}
}
