package stats

import (
	"math"
	"testing"
	"testing/quick"

	"lowsensing/prng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("Summarize(nil) = %+v", s)
	}
}

func TestJainIndex(t *testing.T) {
	if got := Jain(nil); got != 1 {
		t.Fatalf("empty = %v", got)
	}
	if got := Jain([]float64{5, 5, 5, 5}); got != 1 {
		t.Fatalf("equal = %v", got)
	}
	if got := Jain([]float64{0, 0, 0}); got != 1 {
		t.Fatalf("all-zero = %v", got)
	}
	// One value takes everything: index = 1/n.
	if got := Jain([]float64{10, 0, 0, 0}); got != 0.25 {
		t.Fatalf("monopoly = %v, want 0.25", got)
	}
	// Mild skew sits in between.
	if got := Jain([]float64{1, 2, 3, 4}); got <= 0.25 || got >= 1 {
		t.Fatalf("skewed = %v", got)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 {
		t.Fatalf("N = %d", s.N)
	}
	if !almostEqual(s.Mean, 3, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if !almostEqual(s.Var, 2.5, 1e-12) {
		t.Fatalf("Var = %v", s.Var)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if !almostEqual(s.Median, 3, 1e-12) {
		t.Fatalf("Median = %v", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Var != 0 || s.Median != 7 || s.P99 != 7 {
		t.Fatalf("single-point summary wrong: %+v", s)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if q := Quantile(sorted, 0.5); !almostEqual(q, 5, 1e-12) {
		t.Fatalf("median of {0,10} = %v", q)
	}
	if q := Quantile(sorted, 0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(sorted, 1); q != 10 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(sorted, -0.5); q != 0 {
		t.Fatalf("q<0 = %v", q)
	}
}

func TestQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestQuantileWithinRange(t *testing.T) {
	rng := prng.New(1)
	f := func(qRaw uint16) bool {
		q := float64(qRaw) / math.MaxUint16
		sorted := make([]float64, 17)
		prev := 0.0
		for i := range sorted {
			prev += rng.Float64()
			sorted[i] = prev
		}
		v := Quantile(sorted, q)
		return v >= sorted[0] && v <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit := FitLinear(xs, ys)
	if !almostEqual(fit.Slope, 2, 1e-9) || !almostEqual(fit.Intercept, 1, 1e-9) {
		t.Fatalf("fit = %+v", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestFitLinearConstantX(t *testing.T) {
	fit := FitLinear([]float64{2, 2, 2}, []float64{1, 5, 9})
	if fit.Slope != 0 || !almostEqual(fit.Intercept, 5, 1e-12) {
		t.Fatalf("degenerate fit = %+v", fit)
	}
}

func TestFitLinearPanics(t *testing.T) {
	for _, c := range [][2][]float64{
		{{1, 2}, {1}},
		{{1}, {1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for %v", c)
				}
			}()
			FitLinear(c[0], c[1])
		}()
	}
}

func sweep(f func(x float64) float64) (xs, ys []float64) {
	for _, x := range []float64{256, 512, 1024, 2048, 4096, 8192, 16384} {
		xs = append(xs, x)
		ys = append(ys, f(x))
	}
	return xs, ys
}

func TestClassifyGrowthFlat(t *testing.T) {
	xs, ys := sweep(func(x float64) float64 { return 0.31 })
	if g := ClassifyGrowth(xs, ys); g.Class != GrowthFlat {
		t.Fatalf("flat classified as %v (%+v)", g.Class, g)
	}
	// Noisy flat: +-10% wobble.
	xs, ys = sweep(func(x float64) float64 { return 0.31 * (1 + 0.1*math.Sin(x)) })
	if g := ClassifyGrowth(xs, ys); g.Class != GrowthFlat {
		t.Fatalf("noisy flat classified as %v (%+v)", g.Class, g)
	}
}

func TestClassifyGrowthLog(t *testing.T) {
	xs, ys := sweep(func(x float64) float64 { return 3 * math.Log(x) })
	g := ClassifyGrowth(xs, ys)
	if g.Class != GrowthLogarithmic {
		t.Fatalf("log classified as %v (%+v)", g.Class, g)
	}
}

func TestClassifyGrowthPolylog(t *testing.T) {
	xs, ys := sweep(func(x float64) float64 { return math.Pow(math.Log(x), 4) })
	g := ClassifyGrowth(xs, ys)
	if g.Class != GrowthPolylog {
		t.Fatalf("ln^4 classified as %v (%+v)", g.Class, g)
	}
	if g.PolylogExponent < 3 || g.PolylogExponent > 5 {
		t.Fatalf("polylog exponent = %v, want ~4", g.PolylogExponent)
	}
}

func TestClassifyGrowthPolynomial(t *testing.T) {
	xs, ys := sweep(func(x float64) float64 { return x })
	g := ClassifyGrowth(xs, ys)
	if g.Class != GrowthPolynomial {
		t.Fatalf("linear classified as %v (%+v)", g.Class, g)
	}
	if !almostEqual(g.PowerExponent, 1, 0.05) {
		t.Fatalf("power exponent = %v, want ~1", g.PowerExponent)
	}
	xs, ys = sweep(func(x float64) float64 { return math.Sqrt(x) })
	if g := ClassifyGrowth(xs, ys); g.Class != GrowthPolynomial {
		t.Fatalf("sqrt classified as %v (%+v)", g.Class, g)
	}
}

func TestClassifyGrowthPanics(t *testing.T) {
	cases := [][2][]float64{
		{{2, 4}, {1, 1}},         // too few
		{{2, 4, 8}, {1, 1}},      // mismatched
		{{0.5, 4, 8}, {1, 1, 1}}, // x <= 1
		{{2, 4, 8}, {1, -1, 1}},  // y <= 0
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic", i)
				}
			}()
			ClassifyGrowth(c[0], c[1])
		}()
	}
}

func TestGrowthClassString(t *testing.T) {
	if GrowthFlat.String() != "flat" || GrowthPolylog.String() != "polylog" {
		t.Fatal("GrowthClass.String wrong")
	}
	if GrowthClass(99).String() == "" {
		t.Fatal("unknown class should still format")
	}
}

func TestWelfordMatchesSummarize(t *testing.T) {
	rng := prng.New(2)
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		w.Add(xs[i])
	}
	s := Summarize(xs)
	if !almostEqual(w.Mean(), s.Mean, 1e-9) {
		t.Fatalf("mean %v vs %v", w.Mean(), s.Mean)
	}
	if !almostEqual(w.Var(), s.Var, 1e-6) {
		t.Fatalf("var %v vs %v", w.Var(), s.Var)
	}
	if w.Min() != s.Min || w.Max() != s.Max {
		t.Fatalf("min/max mismatch")
	}
	if w.N() != 1000 {
		t.Fatalf("n = %d", w.N())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Fatal("empty Welford not zero")
	}
}
