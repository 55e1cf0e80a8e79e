// Package geo provides the geographic primitives used by the remote
// peering inference methodology: WGS-84 coordinates, geodesic distances
// (Karney/Vincenty-style inverse problem), metropolitan-area clustering,
// and the RTT-to-distance speed model of Section 5.2 (Step 3) of the
// paper.
//
// All distances are expressed in kilometres and all round-trip times in
// milliseconds unless stated otherwise.
package geo

import (
	"fmt"
	"math"
)

// Point is a WGS-84 geographic coordinate in decimal degrees.
type Point struct {
	Lat float64 // latitude, degrees north, in [-90, 90]
	Lon float64 // longitude, degrees east, in [-180, 180]
}

// Valid reports whether the point lies within the WGS-84 coordinate
// domain.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.4f, %.4f)", p.Lat, p.Lon)
}

// Earth model constants (WGS-84 ellipsoid).
const (
	earthRadiusKm    = 6371.0088    // mean Earth radius (IUGG)
	wgs84MajorAxisKm = 6378.137     // semi-major axis a
	wgs84MinorAxisKm = 6356.7523142 // semi-minor axis b
	wgs84Flattening  = 1 / 298.257223563
	degToRad         = math.Pi / 180
	// SpeedOfLightKmPerMs is the vacuum speed of light in km/ms.
	SpeedOfLightKmPerMs = 299.792458
)

// HaversineKm returns the great-circle distance between two points on a
// spherical Earth. It is cheaper but slightly less accurate than
// DistanceKm; the error versus the ellipsoidal distance is below 0.5%.
func HaversineKm(a, b Point) float64 {
	lat1 := a.Lat * degToRad
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad

	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
}

// DistanceKm returns the geodesic distance between two points on the
// WGS-84 ellipsoid, following the classic Vincenty inverse formula with
// a spherical fallback for the rare non-converging antipodal cases.
// The paper applies Karney's method [53]; Vincenty agrees with Karney
// to well under a metre for all non-antipodal pairs, which is far below
// the 50 km metro threshold the methodology operates at.
func DistanceKm(p1, p2 Point) float64 {
	if p1 == p2 {
		return 0
	}
	a := wgs84MajorAxisKm
	b := wgs84MinorAxisKm
	f := wgs84Flattening

	l := (p2.Lon - p1.Lon) * degToRad
	u1 := math.Atan((1 - f) * math.Tan(p1.Lat*degToRad))
	u2 := math.Atan((1 - f) * math.Tan(p2.Lat*degToRad))
	sinU1, cosU1 := math.Sincos(u1)
	sinU2, cosU2 := math.Sincos(u2)

	lambda := l
	var sinSigma, cosSigma, sigma, cosSqAlpha, cos2SigmaM float64
	for i := 0; i < 200; i++ {
		sinLambda, cosLambda := math.Sincos(lambda)
		t1 := cosU2 * sinLambda
		t2 := cosU1*sinU2 - sinU1*cosU2*cosLambda
		sinSigma = math.Sqrt(t1*t1 + t2*t2)
		if sinSigma == 0 {
			return 0 // coincident points
		}
		cosSigma = sinU1*sinU2 + cosU1*cosU2*cosLambda
		sigma = math.Atan2(sinSigma, cosSigma)
		sinAlpha := cosU1 * cosU2 * sinLambda / sinSigma
		cosSqAlpha = 1 - sinAlpha*sinAlpha
		if cosSqAlpha == 0 {
			cos2SigmaM = 0 // equatorial line
		} else {
			cos2SigmaM = cosSigma - 2*sinU1*sinU2/cosSqAlpha
		}
		c := f / 16 * cosSqAlpha * (4 + f*(4-3*cosSqAlpha))
		lambdaPrev := lambda
		lambda = l + (1-c)*f*sinAlpha*
			(sigma+c*sinSigma*(cos2SigmaM+c*cosSigma*(-1+2*cos2SigmaM*cos2SigmaM)))
		if math.Abs(lambda-lambdaPrev) < 1e-12 {
			uSq := cosSqAlpha * (a*a - b*b) / (b * b)
			bigA := 1 + uSq/16384*(4096+uSq*(-768+uSq*(320-175*uSq)))
			bigB := uSq / 1024 * (256 + uSq*(-128+uSq*(74-47*uSq)))
			deltaSigma := bigB * sinSigma * (cos2SigmaM + bigB/4*
				(cosSigma*(-1+2*cos2SigmaM*cos2SigmaM)-
					bigB/6*cos2SigmaM*(-3+4*sinSigma*sinSigma)*(-3+4*cos2SigmaM*cos2SigmaM)))
			return b * bigA * (sigma - deltaSigma)
		}
	}
	// Vincenty fails to converge only for near-antipodal points; fall
	// back to the spherical great-circle distance there.
	return HaversineKm(p1, p2)
}

// MetroSeparationKm is the inter-facility distance above which two
// facilities are considered to belong to different metropolitan areas
// (Section 4.2: "facilities more than 50 km apart").
const MetroSeparationKm = 50

// MaxPairwiseKm returns the maximum geodesic distance between any two
// of the given points, and the indices achieving it. It returns 0 and
// (-1, -1) when fewer than two points are given. The paper uses this to
// classify wide-area IXPs (Fig 2b).
func MaxPairwiseKm(points []Point) (maxKm float64, i, j int) {
	i, j = -1, -1
	for x := 0; x < len(points); x++ {
		for y := x + 1; y < len(points); y++ {
			if d := DistanceKm(points[x], points[y]); d > maxKm {
				maxKm, i, j = d, x, y
			}
		}
	}
	return maxKm, i, j
}
