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
// instead, which takes 1/ln(1-p) off every draw.
func Geometric(rng *prng.Source, p float64) int64 {
	return NewGeom(p).Draw(rng)
}

// Geom is a geometric sampler with inv = 1/ln(1-p) precomputed (0 for p
// outside (0, 1), where Draw never reads it), so a draw costs one uniform
// and one table logarithm. The zero value samples p = 0: its draws panic.
type Geom struct{ p, inv float64 }

// NewGeom returns the geometric sampler for success probability p. It
// never panics: a p outside (0, ∞) is reported by Draw, where Geometric
// has always reported it. -ln(1-p) is p + p²/2 + … + p⁶/6 below p = 2^-8
// (the first omitted term is under 2^-50.8 of it), and fastLn(1-p) above.
func NewGeom(p float64) Geom {
	if !(p > 0 && p < 1) {
		return Geom{p: p}
	}
	if p >= 0x1p-8 {
		return Geom{p: p, inv: 1 / fastLn(1-p)}
	}
	return Geom{p: p, inv: -1 / (p * (1 + p*(1.0/2+p*(1.0/3+p*(1.0/4+p*(1.0/5+p*(1.0/6)))))))}
}

// P returns the sampler's success probability.
func (g Geom) P() float64 { return g.p }

// Draw returns the number of independent Bernoulli(p) trials up to and
// including the first success.
//
// The draw is the exact inverse CDF, X = ceil(ln U / ln(1-p)) for one
// uniform U in (0,1), with math.Log over math.Log1p's bits, though almost
// no draw calls either (see gap). Edge cases: p >= 1 returns 1 without
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
	x, _ := g.gap(rng.Float64Open())
	return x
}

// gap returns exact(u), and whether it called it, for 0 < p < 1 and a
// normal u in (0,1), certifying Ziv-style the ceiling of a = fastLn(u)·inv
// where it can. Go's Log and Log1p are within 1 ulp (their FreeBSD msun
// sources state it), so exact's quotient q is ρ = ln u/ln(1-p) to within
// 2^-50, relative, and with the product's 2^-53
//
//	|a - q| <= ρ·(2^-50 + geomInvErr + fastLnRelErr + 2^-53) + |inv|·fastLnAbsErr·(1+2^-39)
//	        <  ρ·2^-39.9 + |inv|·2^-48.9,
//
// over 50× inside d = a·2^-34 + |inv|·2^-40 in each term, rounding of d
// and a ± d included. With c = ceil(a+d), a-d >= 1 and a-d > c-1 give
// ceil(q) = c; a-d < 1 and c < 2 give c = 1 >= q, which exact clamps to 1.
// max(a-d, 1) > c-1 tests both with no branch to mispredict at LSB's WMin
// probability; c < 2^50 keeps the clamps out; NaN and Inf fall back.
func (g Geom) gap(u float64) (x int64, fellBack bool) {
	a := fastLn(u) * g.inv
	d := a*0x1p-34 - g.inv*0x1p-40
	c := math.Ceil(a + d)
	if max(a-d, 1) > c-1 && c < 0x1p50 {
		return int64(c), false
	}
	return g.exact(u), true
}

// exact is gap's definition: ceil(math.Log(u)/math.Log1p(-p)) in [1, 2^62].
//
//go:noinline
func (g Geom) exact(u float64) int64 {
	return int64(min(max(math.Ceil(math.Log(u)/math.Log1p(-g.p)), 1), float64(maxGeometric)))
}

// The errors gap assumes, pinned by TestFastLnError and TestGeomInvError:
// |fastLn(x) - ln x| <= fastLnAbsErr + fastLnRelErr·|ln x|, and inv is
// 1/ln(1-p) to within geomInvErr relative (the series' under 2^-50; above
// p = 2^-8, |ln(1-p)| > 2^-8 keeps fastLn's under 2^-41).
const (
	fastLnAbsErr = 0x1p-49
	fastLnRelErr = 0x1p-50
	geomInvErr   = 0x1p-40
)

// lnTable holds 1/c, rounded, for the midpoint c of each mantissa interval
// [1+j/128, 1+(j+1)/128), and ln of the rounded value's inverse.
var lnTable = func() (t [128]struct{ invc, lnc float64 }) {
	for j := range t {
		t[j].invc = 1 / (1 + (float64(j)+0.5)/128)
		t[j].lnc = -math.Log(t[j].invc)
	}
	return t
}()

// fastLn returns ln x for a normal x > 0, Tang-style: k·ln 2 + ln c +
// log1p(r) for x = 2^k·m, the table's c for m and r = m/c - 1, |r| <=
// 2^-8, with log1p's degree-5 Taylor polynomial (off by <= r⁶/6 <= 2^-50.5).
func fastLn(x float64) float64 {
	b := math.Float64bits(x)
	t := &lnTable[b>>45&127]
	r := math.Float64frombits(b&(1<<52-1)|1023<<52)*t.invc - 1
	r2 := r * r
	return float64(int(b>>52)-1023)*math.Ln2 + t.lnc + r + r2*(-1.0/2+r*(1.0/3)+r2*(-1.0/4+r*(1.0/5)))
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
// support {0, 1, ...}, variance lambda. It is NewPois(lambda).Draw(rng);
// callers drawing repeatedly at one lambda hold the Pois instead, which
// takes e^-λ (or the PTRS constants) off every draw.
func Poisson(rng *prng.Source, lambda float64) int64 {
	return NewPois(lambda).Draw(rng)
}

// Pois is a Poisson sampler with its λ-dependent constants precomputed:
// e^-λ for the product method below the PTRS cutover, the transformed-
// rejection constants above it. The zero value samples λ = 0.
type Pois struct {
	lambda float64
	// limit is e^-λ, the product method's stopping bound (λ < 10).
	limit float64
	// PTRS constants (λ >= 10).
	logLambda, a, b, invAlpha, vr float64
}

// NewPois returns the Poisson sampler for mean lambda. It never panics: a
// lambda outside [0, 2^52) is reported by Draw, where Poisson has always
// reported it.
func NewPois(lambda float64) Pois {
	p := Pois{lambda: lambda}
	if lambda < poissonPTRSCutover {
		p.limit = math.Exp(-lambda)
	} else {
		p.logLambda = math.Log(lambda)
		p.b = 0.931 + 2.53*math.Sqrt(lambda)
		p.a = -0.059 + 0.02483*p.b
		p.invAlpha = 1.1239 + 1.1328/(p.b-3.4)
		p.vr = 0.9277 - 3.6224/(p.b-2)
	}
	return p
}

// Draw returns a draw from the Poisson distribution with mean λ.
//
// For λ < 10 it uses Knuth's exact product-of-uniforms method; for larger
// λ it uses Hörmann's PTRS transformed rejection, which is also exact and
// needs O(1) uniforms regardless of λ. Edge cases: λ == 0 returns 0 (the
// degenerate distribution); λ < 0 or NaN panics; huge λ (beyond ~2^52,
// where the support no longer fits the float64 integer range) panics
// rather than silently losing mass.
func (p Pois) Draw(rng *prng.Source) int64 {
	switch {
	case p.lambda == 0:
		return 0
	case !(p.lambda > 0): // negative or NaN
		panic(fmt.Sprintf("dist: Poisson requires lambda >= 0, got %v", p.lambda))
	case p.lambda >= 1<<52:
		panic(fmt.Sprintf("dist: Poisson lambda %v too large for exact sampling", p.lambda))
	}
	if p.lambda < poissonPTRSCutover {
		return p.knuth(rng)
	}
	return p.ptrs(rng)
}

// knuth multiplies uniforms until the product drops below e^-λ; the number
// of factors minus one is Poisson(λ).
func (p Pois) knuth(rng *prng.Source) int64 {
	var k int64
	prod := rng.Float64Open()
	for prod > p.limit {
		k++
		prod *= rng.Float64Open()
	}
	return k
}

// ptrs implements the transformed-rejection sampler of Hörmann ("The
// transformed rejection method for generating Poisson random variables",
// 1993), exact for λ >= 10.
func (p Pois) ptrs(rng *prng.Source) int64 {
	a, b := p.a, p.b
	for {
		u := rng.Float64() - 0.5
		v := rng.Float64Open()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + p.lambda + 0.43)
		if us >= 0.07 && v <= p.vr {
			return int64(kf)
		}
		if kf < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(kf + 1)
		if math.Log(v*p.invAlpha/(a/(us*us)+b)) <= kf*p.logLambda-p.lambda-lg {
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
