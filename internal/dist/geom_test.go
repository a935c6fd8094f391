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
	g := math.Ceil(math.Log(rng.Float64Open()) / math.Log1p(-p))
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

var geomSink int64

// BenchmarkGeometric measures one geometric draw at p = 1/64: through a
// held Geom (ln(1-p) precomputed, the per-access path of every fixed-rate
// caller) and through Geometric (ln(1-p) recomputed per draw).
func BenchmarkGeometric(b *testing.B) {
	const p = 1.0 / 64
	b.Run("geom", func(b *testing.B) {
		g, rng := NewGeom(p), prng.New(1)
		b.ReportAllocs()
		var sum int64
		for i := 0; i < b.N; i++ {
			sum += g.Draw(rng)
		}
		geomSink = sum
	})
	b.Run("func", func(b *testing.B) {
		rng := prng.New(1)
		b.ReportAllocs()
		var sum int64
		for i := 0; i < b.N; i++ {
			sum += Geometric(rng, p)
		}
		geomSink = sum
	})
}
