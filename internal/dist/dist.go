// Package dist provides exact discrete-distribution samplers on top of the
// deterministic prng sources: Geometric, Poisson, and Binomial.
//
// These are the primitive draws of the simulator's hot paths — geometric
// gaps between channel accesses, Poisson arrival batches, and binomial jam
// counts over unobserved slot ranges — so every sampler here is exact in
// distribution (no normal approximations) and deterministic given the
// source's state. Constant-parameter validation is the caller's job; the
// samplers panic on parameters outside their documented domains, because a
// bad parameter is always a programming error upstream, never data.
package dist

import (
	"fmt"
	"math"

	"lowsensing/prng"
)

// maxGeometric caps a geometric draw so callers adding gaps to int64 slot
// counters can never overflow. A gap this long (2^62 slots) is unreachable
// in any simulation the engine can run, so the truncation is theoretical.
const maxGeometric = int64(1) << 62

// Geometric returns the number of independent Bernoulli(p) trials up to and
// including the first success: support {1, 2, ...}, mean 1/p. It is
// NewGeom(p).Draw(rng); callers drawing repeatedly at one p hold the Geom
// instead, which takes the log1p off every draw.
func Geometric(rng *prng.Source, p float64) int64 {
	return NewGeom(p).Draw(rng)
}

// Geom is a geometric sampler with ln(1-p) precomputed, so a draw costs one
// uniform and one logarithm. The zero value samples p = 0: its draws panic.
type Geom struct {
	p, ln1mp float64
}

// NewGeom returns the geometric sampler for success probability p. It
// never panics: a p outside (0, ∞) is reported by Draw, where Geometric
// has always reported it.
func NewGeom(p float64) Geom {
	return Geom{p: p, ln1mp: math.Log1p(-p)}
}

// P returns the sampler's success probability.
func (g Geom) P() float64 { return g.p }

// Draw returns the number of independent Bernoulli(p) trials up to and
// including the first success.
//
// The draw uses the exact inverse CDF, X = ceil(ln U / ln(1-p)) for uniform
// U in (0,1), with ln(1-p) computed by log1p for accuracy at small p. Edge
// cases: p >= 1 always returns 1 (success on the first trial) without
// drawing; p <= 0 or NaN panics, since the waiting time would be infinite;
// draws that would exceed 2^62 (possible only for p below ~1e-18) are
// truncated there so slot arithmetic cannot overflow.
//
//lsbvet:hotpath
func (g Geom) Draw(rng *prng.Source) int64 {
	if !(g.p > 0) { // also catches NaN
		geometricPanic(g.p)
	}
	if g.p >= 1 {
		return 1
	}
	// ln(1-p) is finite and negative here because 0 < p < 1.
	x := math.Ceil(math.Log(rng.Float64Open()) / g.ln1mp)
	if x < 1 {
		// Float64Open can return values so close to 1 that the ratio rounds
		// to 0; the inverse CDF maps that region to the minimum value 1.
		return 1
	}
	if x >= float64(maxGeometric) {
		return maxGeometric
	}
	return int64(x)
}

// geometricPanic builds Draw's parameter panic behind //go:noinline, so
// fmt stays out of the hot path and its inlining budget.
//
//go:noinline
func geometricPanic(p float64) {
	panic(fmt.Sprintf("dist: Geometric requires p > 0, got %v", p))
}

// poissonPTRSCutover is the λ above which Poisson switches from Knuth's
// product-of-uniforms method (expected λ+1 uniforms per draw) to Hörmann's
// PTRS transformed-rejection method (O(1) uniforms per draw). PTRS is valid
// for λ >= 10; the product method's e^-λ factor underflows near λ ≈ 745, so
// the cutover must sit between those bounds.
const poissonPTRSCutover = 10

// Poisson returns a draw from the Poisson distribution with mean lambda:
// support {0, 1, ...}, variance lambda.
//
// For lambda < 10 it uses Knuth's exact product-of-uniforms method; for
// larger lambda it uses Hörmann's PTRS transformed rejection, which is also
// exact and needs O(1) uniforms regardless of lambda. Edge cases:
// lambda == 0 returns 0 (the degenerate distribution); lambda < 0 or NaN
// panics; huge lambda (beyond ~2^52, where the support no longer fits the
// float64 integer range) panics rather than silently losing mass.
func Poisson(rng *prng.Source, lambda float64) int64 {
	switch {
	case lambda == 0:
		return 0
	case !(lambda > 0): // negative or NaN
		panic(fmt.Sprintf("dist: Poisson requires lambda >= 0, got %v", lambda))
	case lambda >= 1<<52:
		panic(fmt.Sprintf("dist: Poisson lambda %v too large for exact sampling", lambda))
	}
	if lambda < poissonPTRSCutover {
		return poissonKnuth(rng, lambda)
	}
	return poissonPTRS(rng, lambda)
}

// poissonKnuth multiplies uniforms until the product drops below e^-λ; the
// number of factors minus one is Poisson(λ).
func poissonKnuth(rng *prng.Source, lambda float64) int64 {
	limit := math.Exp(-lambda)
	var k int64
	prod := rng.Float64Open()
	for prod > limit {
		k++
		prod *= rng.Float64Open()
	}
	return k
}

// poissonPTRS implements the transformed-rejection sampler of Hörmann
// ("The transformed rejection method for generating Poisson random
// variables", 1993), exact for λ >= 10.
func poissonPTRS(rng *prng.Source, lambda float64) int64 {
	logLambda := math.Log(lambda)
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64Open()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(kf)
		}
		if kf < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(kf + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= kf*logLambda-lambda-lg {
			return int64(kf)
		}
	}
}

// binomialBTRSCutover is the n·min(p,1-p) above which Binomial switches
// from sequential inversion (BINV, expected O(np) work) to Hörmann's BTRS
// transformed rejection (O(1) work). BTRS is valid for n·min(p,1-p) >= 10.
const binomialBTRSCutover = 10

// Binomial returns a draw from the Binomial(n, p) distribution: the number
// of successes in n independent Bernoulli(p) trials, support {0, ..., n}.
//
// Sampling is exact at every parameter: p is reflected to min(p, 1-p), then
// small n·p uses BINV inversion and large n·p uses Hörmann's BTRS
// transformed rejection, so the cost is O(min(np, 1)) uniforms — in
// particular sampling jam counts over huge slot ranges never does O(range)
// work. Edge cases: n == 0, p <= 0 return 0; p >= 1 returns n; n < 0 or
// NaN p panics.
func Binomial(rng *prng.Source, n int64, p float64) int64 {
	if n < 0 {
		panic(fmt.Sprintf("dist: Binomial requires n >= 0, got %d", n))
	}
	if math.IsNaN(p) {
		panic("dist: Binomial requires p in [0,1], got NaN")
	}
	if n == 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Reflect to q = min(p, 1-p); successes and failures swap roles.
	if p > 0.5 {
		return n - binomialSmallP(rng, n, 1-p)
	}
	return binomialSmallP(rng, n, p)
}

// binomialSmallP samples Binomial(n, p) for 0 < p <= 0.5.
func binomialSmallP(rng *prng.Source, n int64, p float64) int64 {
	if float64(n)*p < binomialBTRSCutover {
		return binomialBINV(rng, n, p)
	}
	return binomialBTRS(rng, n, p)
}

// binomialBINV is the sequential inversion method: walk the CDF from k=0
// using the pmf recurrence. Expected work is O(np+1); the cutover keeps
// that below ~10 iterations. The starting mass q^n = exp(n·log1p(-p)) is
// computed stably and cannot underflow in this regime (np < 10, p <= 0.5
// imply q^n > e^-20).
func binomialBINV(rng *prng.Source, n int64, p float64) int64 {
	q := 1 - p
	s := p / q
	a := float64(n+1) * s
	r := math.Exp(float64(n) * math.Log1p(-p)) // q^n
	u := rng.Float64()
	var k int64
	for u > r {
		u -= r
		k++
		if k > n {
			// Unreachable in exact arithmetic (the pmf sums to 1); guards
			// against accumulated floating-point rounding.
			return n
		}
		r *= a/float64(k) - s
	}
	return k
}

// binomialBTRS implements the transformed-rejection sampler of Hörmann
// ("The generation of binomial random variates", 1993), exact for
// n·p >= 10 with p <= 0.5.
func binomialBTRS(rng *prng.Source, n int64, p float64) int64 {
	nf := float64(n)
	spq := math.Sqrt(nf * p * (1 - p))
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b
	alpha := (2.83 + 5.1/b) * spq
	lpq := math.Log(p / (1 - p))
	m := math.Floor(float64(n+1) * p) // mode
	lgM, _ := math.Lgamma(m + 1)
	lgNM, _ := math.Lgamma(nf - m + 1)
	h := lgM + lgNM
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64Open()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > nf {
			continue
		}
		if us >= 0.07 && v <= vr {
			return int64(kf)
		}
		lgK, _ := math.Lgamma(kf + 1)
		lgNK, _ := math.Lgamma(nf - kf + 1)
		if math.Log(v*alpha/(a/(us*us)+b)) <= h-lgK-lgNK+(kf-m)*lpq {
			return int64(kf)
		}
	}
}
