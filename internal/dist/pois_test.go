package dist

import (
	"math"
	"testing"

	"lowsensing/prng"
)

// poissonRef is the Poisson draw written out in full, with e^-λ and the
// PTRS constants recomputed on every draw: the reference Pois must match
// bit for bit.
func poissonRef(rng *prng.Source, lambda float64) int64 {
	if lambda < poissonPTRSCutover {
		limit := math.Exp(-lambda)
		var k int64
		prod := rng.Float64Open()
		for prod > limit {
			k++
			prod *= rng.Float64Open()
		}
		return k
	}
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

// TestPoisMatchesPoisson checks NewPois(λ).Draw, Poisson and the
// written-out reference against each other on twin streams, on both sides
// of the PTRS cutover and at its edge.
func TestPoisMatchesPoisson(t *testing.T) {
	for _, lambda := range []float64{1e-9, 0.2, 3.2, 9.99, 10, 50} {
		a, b, c := prng.New(7), prng.New(7), prng.New(7)
		p := NewPois(lambda)
		for i := 0; i < 5000; i++ {
			x, y, z := p.Draw(a), Poisson(b, lambda), poissonRef(c, lambda)
			if x != y || x != z {
				t.Fatalf("λ=%v draw %d: Pois %d, Poisson %d, reference %d", lambda, i, x, y, z)
			}
		}
		if *a != *b || *a != *c {
			t.Fatalf("λ=%v: streams diverged", lambda)
		}
	}
}

// TestPoisDrawPanics: the parameter check fires on the draw, never at
// construction, and the zero Pois is a λ = 0 sampler.
func TestPoisDrawPanics(t *testing.T) {
	rng := prng.New(1)
	if got := (Pois{}).Draw(rng); got != 0 {
		t.Fatalf("zero Pois drew %d, want 0", got)
	}
	for _, lambda := range []float64{-1, math.NaN(), 1 << 52, math.Inf(1)} {
		p := NewPois(lambda)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPois(%v).Draw did not panic", lambda)
				}
			}()
			p.Draw(rng)
		}()
	}
}
