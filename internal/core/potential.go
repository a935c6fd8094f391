package core

import (
	"fmt"
	"math"
)

// Contention returns C(t) = Σ_u 1/w_u, the expected number of senders in a
// slot (paper §4.1), for the given window multiset.
func Contention(windows []float64) float64 {
	var c float64
	for _, w := range windows {
		c += 1 / w
	}
	return c
}

// Regime labels a contention value per the paper's three regimes.
type Regime int

// Contention regimes of §4.1: low (C < Clow), good (Clow <= C <= Chigh),
// and high (C > Chigh).
const (
	RegimeLow Regime = iota + 1
	RegimeGood
	RegimeHigh
)

// String implements fmt.Stringer.
func (r Regime) String() string {
	switch r {
	case RegimeLow:
		return "low"
	case RegimeGood:
		return "good"
	case RegimeHigh:
		return "high"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// RegimeBounds holds the contention thresholds Clow and Chigh.
type RegimeBounds struct {
	Low  float64
	High float64
}

// DefaultRegimeBounds matches the paper's constraints: Clow <= 1/WMin and
// Chigh > 1.
func DefaultRegimeBounds(cfg Config) RegimeBounds {
	return RegimeBounds{Low: 1 / cfg.WMin, High: 2}
}

// Classify returns the regime of contention value c.
func (b RegimeBounds) Classify(c float64) Regime {
	switch {
	case c < b.Low:
		return RegimeLow
	case c > b.High:
		return RegimeHigh
	default:
		return RegimeGood
	}
}

// PotentialParams holds the coefficients α1 > α2 > α3 of the potential
// function Φ(t) = α1·N(t) + α2·H(t) + α3·L(t) (paper §4.2), where
// N(t) is the number of packets, H(t) = Σ_u 1/ln(w_u), and
// L(t) = w_max / ln²(w_max) (0 when no packets are present).
type PotentialParams struct {
	Alpha1 float64
	Alpha2 float64
	Alpha3 float64
}

// DefaultPotentialParams returns coefficients satisfying α1 > α2 > α3.
func DefaultPotentialParams() PotentialParams {
	return PotentialParams{Alpha1: 4, Alpha2: 2, Alpha3: 1}
}

// Potential is a decomposition of Φ(t) into its three terms.
type Potential struct {
	N   float64 // packet count term N(t)
	H   float64 // high-contention term H(t) = Σ 1/ln(w_u)
	L   float64 // low-contention term L(t) = w_max / ln²(w_max)
	Phi float64 // α1·N + α2·H + α3·L
}

// Measure computes the potential of the given window multiset. An empty
// multiset has potential 0, matching the paper's convention for inactive
// slots.
func Measure(windows []float64, p PotentialParams) Potential {
	var pot Potential
	if len(windows) == 0 {
		return pot
	}
	wmax := 0.0
	for _, w := range windows {
		pot.H += 1 / math.Log(w)
		if w > wmax {
			wmax = w
		}
	}
	pot.N = float64(len(windows))
	lw := math.Log(wmax)
	pot.L = wmax / (lw * lw)
	pot.Phi = p.Alpha1*pot.N + p.Alpha2*pot.H + p.Alpha3*pot.L
	return pot
}
