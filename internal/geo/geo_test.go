package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// Reference city coordinates used across the tests.
var (
	amsterdam = Point{52.3676, 4.9041}
	london    = Point{51.5072, -0.1276}
	frankfurt = Point{50.1109, 8.6821}
	bucharest = Point{44.4268, 26.1025}
	rotterdam = Point{51.9244, 4.4777}
	newYork   = Point{40.7128, -74.0060}
	sydney    = Point{-33.8688, 151.2093}
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		name   string
		a, b   Point
		wantKm float64
		tolKm  float64
	}{
		{"ams-london", amsterdam, london, 357, 10},
		{"ams-rotterdam", amsterdam, rotterdam, 57, 5}, // paper: "a peer located in Rotterdam ... (57km distance)"
		{"london-bucharest", london, bucharest, 2100, 60},
		{"ams-frankfurt", amsterdam, frankfurt, 360, 15},
		{"london-newyork", london, newYork, 5570, 60},
		{"london-sydney", london, sydney, 16990, 120},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := DistanceKm(c.a, c.b)
			if math.Abs(got-c.wantKm) > c.tolKm {
				t.Errorf("DistanceKm(%v, %v) = %.1f km, want %.0f±%.0f", c.a, c.b, got, c.wantKm, c.tolKm)
			}
		})
	}
}

func TestDistanceZero(t *testing.T) {
	if d := DistanceKm(amsterdam, amsterdam); d != 0 {
		t.Errorf("distance to self = %v, want 0", d)
	}
}

func TestDistanceAntipodalFallback(t *testing.T) {
	a := Point{0, 0}
	b := Point{0.01, 179.99} // near-antipodal: Vincenty may not converge
	d := DistanceKm(a, b)
	if d < 19000 || d > 20100 {
		t.Errorf("antipodal distance = %.0f km, want ~20000", d)
	}
}

func TestHaversineCloseToVincenty(t *testing.T) {
	pairs := [][2]Point{{amsterdam, london}, {london, bucharest}, {london, newYork}}
	for _, p := range pairs {
		h := HaversineKm(p[0], p[1])
		v := DistanceKm(p[0], p[1])
		if v == 0 {
			t.Fatalf("vincenty returned 0 for %v", p)
		}
		if rel := math.Abs(h-v) / v; rel > 0.006 {
			t.Errorf("haversine %0.1f vs vincenty %0.1f: rel err %.4f > 0.006", h, v, rel)
		}
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clampLat(lat1), clampLon(lon1)}
		b := Point{clampLat(lat2), clampLon(lon2)}
		d1 := DistanceKm(a, b)
		d2 := DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6*(1+d1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistanceNonNegativeAndBoundedProperty(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clampLat(lat1), clampLon(lon1)}
		b := Point{clampLat(lat2), clampLon(lon2)}
		d := DistanceKm(a, b)
		// Half the Earth's circumference is an absolute upper bound.
		return d >= 0 && d <= 20100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func clampLat(v float64) float64 { return clampTo(v, 90) }
func clampLon(v float64) float64 { return clampTo(v, 180) }

func clampTo(v, lim float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, lim)
}

func TestMaxPairwise(t *testing.T) {
	pts := []Point{amsterdam, london, bucharest}
	d, i, j := MaxPairwiseKm(pts)
	if i != 1 || j != 2 {
		t.Errorf("max pair = (%d,%d), want (1,2) London-Bucharest", i, j)
	}
	if d < 2000 || d > 2200 {
		t.Errorf("max distance = %.0f, want ~2100", d)
	}
	if d, i, j := MaxPairwiseKm(pts[:1]); d != 0 || i != -1 || j != -1 {
		t.Errorf("single point: got (%v,%d,%d), want (0,-1,-1)", d, i, j)
	}
}

func TestSpeedModelDMax(t *testing.T) {
	m := DefaultSpeedModel()
	// Fig 7: RTT of 4 ms => dmax = 4/9*c*4ms = 532.9 km ("d1 = 532km").
	got := m.DMax(4)
	if math.Abs(got-532.96) > 1.0 {
		t.Errorf("DMax(4ms) = %.2f km, want ~532.9", got)
	}
	if m.DMax(0) != 0 || m.DMax(-1) != 0 {
		t.Error("DMax of non-positive RTT must be 0")
	}
}

func TestSpeedModelDMinFixedPoint(t *testing.T) {
	m := DefaultSpeedModel()
	for _, rtt := range []float64{2, 4, 10, 40, 100} {
		dmin := m.DMin(rtt)
		dmax := m.DMax(rtt)
		if dmin < 0 {
			t.Fatalf("DMin(%v) negative", rtt)
		}
		if dmin > dmax {
			t.Errorf("DMin(%v)=%.1f exceeds DMax=%.1f", rtt, dmin, dmax)
		}
		if dmin > 0 {
			// Verify the fixed-point equation d = vmin(d)*rtt.
			if got := m.VMin(dmin) * rtt; math.Abs(got-dmin) > 0.01*dmin {
				t.Errorf("fixed point violated at rtt=%v: d=%.2f, vmin(d)*rtt=%.2f", rtt, dmin, got)
			}
		}
	}
}

func TestSpeedModelTinyRTTNoLowerBound(t *testing.T) {
	m := DefaultSpeedModel()
	// For sub-millisecond RTTs the feasible ring must start at 0: the
	// peer may be in the same rack.
	if d := m.DMin(0.2); d != 0 {
		t.Errorf("DMin(0.2ms) = %.2f, want 0", d)
	}
}

func TestSpeedModelRingMonotonicProperty(t *testing.T) {
	m := DefaultSpeedModel()
	f := func(r1, r2 float64) bool {
		a := math.Abs(math.Mod(r1, 200))
		b := math.Abs(math.Mod(r2, 200))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		// Both bounds must be monotone non-decreasing in RTT.
		return m.DMax(a) <= m.DMax(b)+1e-9 && m.DMin(a) <= m.DMin(b)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFitMinSpeed(t *testing.T) {
	// Build a synthetic corpus whose effective speed grows with ln(d),
	// around v = 12*(ln d - 2.5), plus positive noise (real paths are
	// never faster than the physics floor).
	var samples []DelaySample
	for _, d := range []float64{30, 50, 80, 120, 200, 350, 500, 800, 1200, 2000, 3000} {
		base := 12 * (math.Log(d) - 2.5)
		for i := 0; i < 5; i++ {
			v := base * (1 + 0.08*float64(i)) // slower... higher v means faster; add spread upward
			samples = append(samples, DelaySample{DistanceKm: d, RTTMs: d / v})
		}
	}
	m, err := FitMinSpeed(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.A <= 0 {
		t.Fatalf("fitted slope A = %v, want > 0", m.A)
	}
	// With q=0 the curve must lower-bound every sample.
	for _, s := range samples {
		v := s.DistanceKm / s.RTTMs
		if vm := m.VMin(s.DistanceKm); vm > v+1e-6 {
			t.Errorf("fit not a lower bound at d=%.0f: vmin=%.2f > observed %.2f", s.DistanceKm, vm, v)
		}
	}
}

func TestFitMinSpeedErrors(t *testing.T) {
	if _, err := FitMinSpeed(nil, 0); err == nil {
		t.Error("want error for empty corpus")
	}
	same := []DelaySample{{100, 2}, {100, 3}, {100, 4}}
	if _, err := FitMinSpeed(same, 0); err == nil {
		t.Error("want error for degenerate corpus at a single distance")
	}
}

func TestPointValid(t *testing.T) {
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{math.NaN(), 0}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func BenchmarkDistanceKm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		DistanceKm(amsterdam, bucharest)
	}
}

func BenchmarkHaversineKm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		HaversineKm(amsterdam, bucharest)
	}
}
