package dist

import (
	"math"
	"testing"

	"lowsensing/prng"
)

// geometricRef is the inverse-CDF draw written out in full, with ln(1-p)
// computed per draw: the reference Geom must match bit for bit.
func geometricRef(rng *prng.Source, p float64) int64 {
	if p >= 1 {
		return 1
	}
	return gapRef(rng.Float64Open(), p)
}

// gapRef is geometricRef's formula for one uniform u.
func gapRef(u, p float64) int64 {
	g := math.Ceil(math.Log(u) / math.Log1p(-p))
	if g < 1 {
		return 1
	}
	if g >= float64(maxGeometric) {
		return maxGeometric
	}
	return int64(g)
}

// TestGeomMatchesGeometric checks NewGeom(p).Draw, Geometric and the
// written-out reference against each other on twin streams, across the
// edges of the domain: p >= 1, p next to 1, tiny p and subnormal p.
func TestGeomMatchesGeometric(t *testing.T) {
	for _, p := range []float64{
		1, 1.5, math.Nextafter(1, 0), 1 - 1e-9, 0.999, 0.5, 1.0 / 64, 1e-3,
		1e-12, 1e-300, 1e-310, math.SmallestNonzeroFloat64,
	} {
		a, b, c := prng.New(5), prng.New(5), prng.New(5)
		g := NewGeom(p)
		if g.P() != p {
			t.Fatalf("NewGeom(%v).P() = %v", p, g.P())
		}
		for i := 0; i < 2000; i++ {
			x, y, z := g.Draw(a), Geometric(b, p), geometricRef(c, p)
			if x != y || x != z {
				t.Fatalf("p=%v draw %d: Geom %d, Geometric %d, reference %d", p, i, x, y, z)
			}
		}
		if *a != *b || *a != *c {
			t.Fatalf("p=%v: streams diverged", p)
		}
	}
}

// TestGeomDrawPanics: the parameter check fires on the draw, never at
// construction, and the zero Geom is a p = 0 sampler.
func TestGeomDrawPanics(t *testing.T) {
	rng := prng.New(1)
	for _, g := range []Geom{{}, NewGeom(0), NewGeom(-0.5), NewGeom(math.NaN())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geom{p: %v}.Draw did not panic", g.P())
				}
			}()
			g.Draw(rng)
		}()
	}
}

// TestGeomGapEdges puts u where the certificate is weakest: within 3 ulps
// of exp(n·ln(1-p)), where ln u / ln(1-p) crosses the integer n, for every
// n up to 64, and at p on both sides of the series cutover 2^-8. Those
// points all fall back, so it also steps 2^4 … 2^44 ulps away on either
// side, through the band where the estimate starts to certify. gap must
// equal the reference everywhere, and both of its paths must have run.
func TestGeomGapEdges(t *testing.T) {
	offsets := []int64{-3, -2, -1, 0, 1, 2, 3}
	for j := 4; j <= 44; j += 2 {
		offsets = append(offsets, -1<<j, 1<<j)
	}
	var fast, fellBack int
	for _, p := range []float64{
		1 - 0x1p-53, 0.9, 0.562, 1.0 / 64, math.Nextafter(0x1p-8, 0), 0x1p-8,
		math.Nextafter(0x1p-8, 1), 1e-6, 1e-12,
	} {
		g := NewGeom(p)
		for n := 1; n <= 64; n++ {
			u0 := math.Exp(float64(n) * math.Log1p(-p))
			for _, k := range offsets {
				u := math.Float64frombits(uint64(int64(math.Float64bits(u0)) + k))
				if !(u >= 0x1p-1022 && u < 1) {
					continue
				}
				x, fb := g.gap(u)
				if want := gapRef(u, p); x != want {
					t.Fatalf("p=%v u=%v (n=%d, %+d ulps): gap %d, reference %d", p, u, n, k, x, want)
				}
				if fb {
					fellBack++
				} else {
					fast++
				}
			}
		}
	}
	if fast == 0 || fellBack == 0 {
		t.Fatalf("%d points certified, %d fell back: both paths must run", fast, fellBack)
	}
	t.Logf("%d points certified, %d fell back", fast, fellBack)
}

// TestGeomInvError pins inv within half of geomInvErr of 1/math.Log1p(-p),
// leaving the other half to Log1p's ulp and the product's rounding, on
// log-spaced p from 1e-300 to 1-2^-53 and around the series cutover.
func TestGeomInvError(t *testing.T) {
	ps := []float64{math.Nextafter(0x1p-8, 0), 0x1p-8, math.Nextafter(0x1p-8, 1), 0.5, 1 - 0x1p-53}
	for e := -300.0; e < 0; e += 0.01 {
		ps = append(ps, math.Pow(10, e), 1-math.Pow(10, e))
	}
	for _, p := range ps {
		if !(p > 0 && p < 1) {
			continue
		}
		if err := math.Abs(NewGeom(p).inv*math.Log1p(-p) - 1); !(err <= geomInvErr/2) {
			t.Fatalf("p=%v: inv off by %g relative, bound %g", p, err, geomInvErr/2)
		}
	}
}

// TestFastLnError pins fastLn's error below the fastLnAbsErr +
// fastLnRelErr·|ln x| bound gap's certificate assumes. It measures against
// math.Log and charges math.Log's own 1-ulp error (2^-52 relative) to the
// bound, over random x in (0,1) across every binade Float64Open reaches,
// the ±3-ulp neighbourhood of every table edge, and the 2^17 floats just
// below 1, where k·ln 2 and ln c cancel.
func TestFastLnError(t *testing.T) {
	var worst float64 // largest error as a fraction of the bound
	check := func(x float64) {
		l := math.Log(x)
		err := math.Abs(fastLn(x)-l) + 0x1p-52*math.Abs(l)
		if r := err / (fastLnAbsErr + fastLnRelErr*math.Abs(l)); !(r <= worst) {
			if !(r <= 1) {
				t.Fatalf("fastLn(%v) = %v, math.Log %v: error %g over the bound", x, fastLn(x), l, err)
			}
			worst = r
		}
	}
	rng := prng.New(11)
	for i := 0; i < 1<<20; i++ {
		check(math.Ldexp(1+rng.Float64(), -1-int(rng.Uint64n(54))))
	}
	for k := -55; k < 0; k++ {
		for j := 0; j <= 128; j++ {
			b := math.Float64bits(math.Ldexp(1+float64(j)/128, k))
			for d := uint64(0); d <= 6; d++ {
				if x := math.Float64frombits(b + d - 3); x < 1 {
					check(x)
				}
			}
		}
	}
	for x, i := math.Nextafter(1, 0), 0; i < 1<<17; x, i = math.Nextafter(x, 0), i+1 {
		check(x)
	}
	t.Logf("worst error %.3f of the bound", worst)
}

// FuzzGeomDraw fuzzes the bits of p and of u: for every p in (0,1) and
// normal u in (0,1), gap must equal the reference formula.
func FuzzGeomDraw(f *testing.F) {
	for _, p := range []float64{0.562, 1.0 / 64, 0x1p-8, 1e-6, 1 - 0x1p-53} {
		f.Add(math.Float64bits(p), math.Float64bits(math.Exp(3*math.Log1p(-p))))
		f.Add(math.Float64bits(p), math.Float64bits(0.5))
	}
	f.Fuzz(func(t *testing.T, pb, ub uint64) {
		p, u := math.Float64frombits(pb), math.Float64frombits(ub)
		if !(p > 0 && p < 1 && u >= 0x1p-1022 && u < 1) {
			t.Skip()
		}
		if x, _ := NewGeom(p).gap(u); x != gapRef(u, p) {
			t.Fatalf("p=%v u=%v: gap %d, reference %d", p, u, x, gapRef(u, p))
		}
	})
}

var geomSink int64

// BenchmarkGeometric measures one geometric draw at p = 1/64: through a
// held Geom (1/ln(1-p) precomputed, the per-access path of every
// fixed-rate caller) and through Geometric (NewGeom per draw). The p=…
// rows hold a Geom at LSB's access probability at WMin (0.562) and at a
// small one (1e-4, NewGeom's series side of 2^-8).
func BenchmarkGeometric(b *testing.B) {
	const p = 1.0 / 64
	held := func(p float64) func(*testing.B) {
		return func(b *testing.B) {
			g, rng := NewGeom(p), prng.New(1)
			b.ReportAllocs()
			var sum int64
			for i := 0; i < b.N; i++ {
				sum += g.Draw(rng)
			}
			geomSink = sum
		}
	}
	b.Run("geom", held(p))
	b.Run("func", func(b *testing.B) {
		rng := prng.New(1)
		b.ReportAllocs()
		var sum int64
		for i := 0; i < b.N; i++ {
			sum += Geometric(rng, p)
		}
		geomSink = sum
	})
	b.Run("p=0.562", held(0.562))
	b.Run("p=0.0001", held(1e-4))
}
