package geo

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// SpeedModel converts round-trip times to feasible geographic distance
// ranges, following Step 3 of the inference methodology (Section 5.2).
//
// The upper bound uses the maximum end-to-end probe packet speed of
// Katz-Bassett et al. [54], vmax = 4/9 * c, so that
//
//	dmax = vmax * RTTmin.
//
// The lower bound uses a logarithmic effective-speed curve fitted on
// inter-facility Y.1731 delay measurements (Fig 6 in the paper):
//
//	vmin(d) = A * (ln(d) - B)   [km/ms], d in km,
//
// which captures that short-haul paths achieve a much lower effective
// speed (routing detours, serialization, DWDM add/drop) than long-haul
// ones. dmin is the fixed point of d = vmin(d) * RTTmin.
type SpeedModel struct {
	// VMaxKmPerMs is the maximum effective probe speed in km/ms.
	VMaxKmPerMs float64
	// A and B parametrise the minimum-speed curve vmin(d) = A*(ln d - B).
	A float64
	// B is the log-offset; vmin is zero at d = e^B km, i.e. below that
	// distance no lower bound applies.
	B float64
}

// DefaultSpeedModel is the model used throughout the reproduction. VMax
// follows the paper exactly; A and B were fitted (see FitMinSpeed) on
// the synthetic Y.1731 inter-facility corpus so that, like in Fig 6,
// the curve lower-bounds all observed facility-to-facility samples.
func DefaultSpeedModel() SpeedModel {
	return SpeedModel{
		VMaxKmPerMs: 4.0 / 9.0 * SpeedOfLightKmPerMs, // ~133.24 km/ms
		A:           10.0,
		B:           3.0,
	}
}

// VMin returns the minimum effective speed (km/ms) at distance d km.
// It is zero for distances at or below e^B km.
func (m SpeedModel) VMin(dKm float64) float64 {
	if dKm <= 0 {
		return 0
	}
	v := m.A * (math.Log(dKm) - m.B)
	if v < 0 {
		return 0
	}
	return v
}

// DMax returns the maximum distance (km) a target can be from the
// vantage point given the measured minimum RTT (ms).
func (m SpeedModel) DMax(rttMs float64) float64 {
	if rttMs <= 0 {
		return 0
	}
	return m.VMaxKmPerMs * rttMs
}

// DMin returns the minimum distance (km) consistent with the measured
// minimum RTT (ms): the largest fixed point of d = vmin(d)*rtt. A zero
// result means the target may be arbitrarily close to the vantage
// point (typical for RTTs of a few ms or less).
func (m SpeedModel) DMin(rttMs float64) float64 {
	if rttMs <= 0 || m.A <= 0 {
		return 0
	}
	// Solve d = A*(ln d - B)*t for the stable (upper) fixed point by
	// iterating from dmax downwards; g(d) = A*(ln d - B)*t is concave
	// and increasing, so iteration from any point at or above the upper
	// fixed point converges to it monotonically.
	t := rttMs
	d := m.DMax(rttMs)
	if d <= math.Exp(m.B) {
		return 0
	}
	for i := 0; i < 128; i++ {
		next := m.A * (math.Log(d) - m.B) * t
		if next <= 0 {
			return 0
		}
		if math.Abs(next-d) < 1e-9 {
			return next
		}
		d = next
	}
	return d
}

// DelaySample is one inter-facility delay observation: the geodesic
// distance between the two facilities and the measured (Y.1731-style)
// round-trip time.
type DelaySample struct {
	DistanceKm float64
	RTTMs      float64
}

// ErrInsufficientData is returned by FitMinSpeed when fewer than two
// usable samples are available.
var ErrInsufficientData = errors.New("geo: insufficient samples to fit speed model")

// FitMinSpeed fits the lower-bound speed curve vmin(d) = A*(ln d - B)
// on a corpus of inter-facility delay samples, reproducing the data
// fitting of Fig 6. Each sample yields an effective speed v = d/rtt;
// the fit performs a least-squares regression of v on ln d and then
// shifts the intercept down so the curve lower-bounds every sample
// (the paper's curve is an *approximate lower bound*, so we allow the
// quantile q of samples to fall below it; q=0 bounds all samples).
func FitMinSpeed(samples []DelaySample, q float64) (SpeedModel, error) {
	type obs struct{ lnD, v float64 }
	var o []obs
	for _, s := range samples {
		if s.DistanceKm <= 1 || s.RTTMs <= 0 {
			continue
		}
		o = append(o, obs{math.Log(s.DistanceKm), s.DistanceKm / s.RTTMs})
	}
	if len(o) < 2 {
		return SpeedModel{}, ErrInsufficientData
	}
	// Least squares v = a*lnD + c.
	var sx, sy, sxx, sxy float64
	for _, p := range o {
		sx += p.lnD
		sy += p.v
		sxx += p.lnD * p.lnD
		sxy += p.lnD * p.v
	}
	n := float64(len(o))
	den := n*sxx - sx*sx
	if den == 0 {
		return SpeedModel{}, fmt.Errorf("geo: degenerate sample set (all at same distance): %w", ErrInsufficientData)
	}
	a := (n*sxy - sx*sy) / den
	c := (sy - a*sx) / n
	if a <= 0 {
		// The corpus does not exhibit the expected speed-vs-distance
		// growth; fall back to the default curve's slope and only fit
		// the offset.
		a = DefaultSpeedModel().A
		c = (sy - a*sx) / n
	}
	// Shift intercept so that at most a q-fraction of the samples lie
	// below the curve: residual r = v - (a*lnD + c); choose the shift as
	// the q-quantile of residuals.
	res := make([]float64, len(o))
	for i, p := range o {
		res[i] = p.v - (a*p.lnD + c)
	}
	sort.Float64s(res)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(q * float64(len(res)-1))
	shift := res[idx]
	c += shift
	// vmin(d) = a*lnD + c = a*(lnD - (-c/a)) => B = -c/a.
	return SpeedModel{
		VMaxKmPerMs: 4.0 / 9.0 * SpeedOfLightKmPerMs,
		A:           a,
		B:           -c / a,
	}, nil
}
