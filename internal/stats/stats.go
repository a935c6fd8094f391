// Package stats provides the descriptive statistics and model-fitting
// routines the experiment harness uses to verify the shapes claimed by the
// paper's theorems (constant throughput, polylogarithmic energy, linear
// backlog in S, and so on).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds standard descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // unbiased sample variance
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Var = ss / float64(s.N-1)
	}
	s.Std = math.Sqrt(s.Var)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.9)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// Jain returns Jain's fairness index of the sample:
// (Σx)² / (n·Σx²), which is 1 when all values are equal and 1/n when a
// single value dominates. An empty or all-zero sample is perfectly fair
// (1): nothing is distributed, so nothing is distributed unevenly. This is
// the module's one Jain index: it scores per-class fairness of multi-class
// scenarios, the per-packet fairness experiment, and cluster per-channel
// fairness.
func Jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Quantile returns the q-quantile (0 <= q <= 1) of a sorted sample using
// linear interpolation between order statistics. It panics if the sample is
// empty or unsorted inputs are the caller's responsibility.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit holds an ordinary-least-squares fit y = Intercept + Slope*x.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLinear computes the least-squares line through (xs, ys). It panics if
// the slices differ in length or have fewer than two points; experiments
// always fit at least three sweep points.
func FitLinear(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) {
		panic("stats: FitLinear length mismatch")
	}
	if len(xs) < 2 {
		panic("stats: FitLinear needs at least 2 points")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	fit := LinearFit{}
	if sxx == 0 {
		fit.Slope = 0
		fit.Intercept = my
		fit.R2 = 0
		return fit
	}
	fit.Slope = sxy / sxx
	fit.Intercept = my - fit.Slope*mx
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit
}

// GrowthClass labels the growth shape inferred by ClassifyGrowth.
type GrowthClass int

// Growth classes, ordered by asymptotic rate.
const (
	GrowthFlat GrowthClass = iota + 1
	GrowthLogarithmic
	GrowthPolylog
	GrowthPolynomial
)

// String implements fmt.Stringer.
func (g GrowthClass) String() string {
	switch g {
	case GrowthFlat:
		return "flat"
	case GrowthLogarithmic:
		return "logarithmic"
	case GrowthPolylog:
		return "polylog"
	case GrowthPolynomial:
		return "polynomial"
	default:
		return fmt.Sprintf("GrowthClass(%d)", int(g))
	}
}

// GrowthFit reports how y scales with x over a sweep.
type GrowthFit struct {
	Class GrowthClass
	// PowerExponent is the slope of log y vs log x (y ~ x^a).
	PowerExponent float64
	// PolylogExponent is the slope of log y vs log log x (y ~ (ln x)^b),
	// meaningful when Class is GrowthLogarithmic or GrowthPolylog.
	PolylogExponent float64
	// RelSpread is max(y)/min(y) - 1, used to detect flatness.
	RelSpread float64
}

// ClassifyGrowth infers the growth class of ys as a function of xs
// (both positive, xs increasing, spanning at least a factor of 4). The
// classifier is deliberately coarse — it distinguishes the four regimes the
// paper's theorems separate: flat (constant throughput), logarithmic /
// polylog (energy bounds), and polynomial (what a broken bound looks like).
func ClassifyGrowth(xs, ys []float64) GrowthFit {
	if len(xs) != len(ys) || len(xs) < 3 {
		panic("stats: ClassifyGrowth needs >= 3 aligned points")
	}
	minY, maxY := math.Inf(1), math.Inf(-1)
	for i := range xs {
		if xs[i] <= 1 || ys[i] <= 0 {
			panic("stats: ClassifyGrowth needs xs > 1 and ys > 0")
		}
		if ys[i] < minY {
			minY = ys[i]
		}
		if ys[i] > maxY {
			maxY = ys[i]
		}
	}
	fit := GrowthFit{RelSpread: maxY/minY - 1}

	logX := make([]float64, len(xs))
	logY := make([]float64, len(ys))
	loglogX := make([]float64, len(xs))
	for i := range xs {
		logX[i] = math.Log(xs[i])
		logY[i] = math.Log(ys[i])
		loglogX[i] = math.Log(math.Log(xs[i]))
	}
	power := FitLinear(logX, logY)
	polylog := FitLinear(loglogX, logY)
	fit.PowerExponent = power.Slope
	fit.PolylogExponent = polylog.Slope

	// Flatness dominates: small spread or near-zero power slope.
	if fit.RelSpread < 0.5 || math.Abs(power.Slope) < 0.08 {
		fit.Class = GrowthFlat
		return fit
	}
	// Otherwise choose between the power-law model y ~ x^a and the polylog
	// model y ~ (ln x)^b by goodness of fit in log space. Over a finite
	// sweep a polylog curve has a nonzero apparent power slope (ln^4 x over
	// [2^8, 2^14] fits x^0.54), so slope thresholds alone cannot separate
	// the regimes the theorems distinguish — but the residuals can: the true
	// model fits its own transform exactly.
	if power.R2 >= polylog.R2 {
		fit.Class = GrowthPolynomial
	} else if polylog.Slope <= 1.5 {
		fit.Class = GrowthLogarithmic
	} else {
		fit.Class = GrowthPolylog
	}
	return fit
}

// Welford accumulates mean and variance in one pass without storing the
// sample; used for per-slot series that would be too large to keep.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 if fewer than 2 points).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Min returns the smallest observation (0 if empty).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max returns the largest observation (0 if empty).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}
