package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestLogHistBucketLayout(t *testing.T) {
	// Small values are exact.
	for v := int64(0); v < 16; v++ {
		if got := logHistIndex(v); got != int(v) {
			t.Fatalf("index(%d) = %d", v, got)
		}
	}
	// Every bucket's bounds invert its index, buckets tile the value space,
	// and each value lands inside its own bucket's range.
	prevHi := int64(0)
	for i := 0; i < logHistBuckets; i++ {
		lo, hi := logHistBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d: lo %d, want %d (gap or overlap)", i, lo, prevHi)
		}
		if i == logHistBuckets-1 && hi != math.MaxInt64 {
			t.Fatalf("top bucket hi = %d, want MaxInt64", hi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d: empty range [%d,%d)", i, lo, hi)
		}
		if got := logHistIndex(lo); got != i {
			t.Fatalf("index(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := logHistIndex(hi - 1); got != i {
			t.Fatalf("index(hi-1=%d) = %d, want %d", hi-1, got, i)
		}
		prevHi = hi
	}
	// The largest int64 must be representable.
	if got := logHistIndex(math.MaxInt64); got != logHistBuckets-1 {
		t.Fatalf("index(MaxInt64) = %d, want %d", got, logHistBuckets-1)
	}
}

func TestLogHistEmptyAndNegative(t *testing.T) {
	var h LogHist
	if h.Quantile(0.5) != 0 || h.N() != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Add(-7) // clamps to 0
	if h.N() != 1 || h.Quantile(0.5) != 0 {
		t.Fatalf("negative add: n=%d q=%v", h.N(), h.Quantile(0.5))
	}
}

func TestLogHistExactSmallValues(t *testing.T) {
	var h LogHist
	for _, v := range []int64{3, 3, 3, 3} {
		h.Add(v)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 3 {
			t.Fatalf("Quantile(%v) = %v, want 3", q, got)
		}
	}
}

// TestLogHistQuantileCrossCheck drives randomized samples from several
// shapes through both the histogram and the exact sorted-slice Quantile and
// asserts agreement within the histogram's bucket resolution (1/8 relative
// above 16, exact below).
func TestLogHistQuantileCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(20240624))
	shapes := map[string]func() int64{
		"uniform-small": func() int64 { return rng.Int63n(12) },
		"uniform-wide":  func() int64 { return rng.Int63n(100000) },
		"geometric": func() int64 {
			v := int64(0)
			for rng.Float64() < 0.9 {
				v++
			}
			return v
		},
		"heavy-tail": func() int64 {
			// Pareto-ish: x = floor(1/u^1.2), occasionally huge.
			u := rng.Float64() + 1e-12
			x := math.Pow(1/u, 1.2)
			if x > 1e12 {
				x = 1e12
			}
			return int64(x)
		},
	}
	quantiles := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

	for name, draw := range shapes {
		for _, n := range []int{1, 2, 10, 1000, 20000} {
			var h LogHist
			xs := make([]float64, n)
			for i := range xs {
				v := draw()
				xs[i] = float64(v)
				h.Add(v)
			}
			sort.Float64s(xs)
			for _, q := range quantiles {
				exact := Quantile(xs, q)
				got := h.Quantile(q)
				// Bucket resolution: exact below 16; 1/8 relative above.
				// The exact-rank value and the histogram's interpolation may
				// also sit one unit-bucket apart around interpolated ranks.
				tol := 1.0 + exact/8
				if math.Abs(got-exact) > tol {
					t.Fatalf("%s n=%d q=%v: hist %v vs exact %v (tol %v)",
						name, n, q, got, exact, tol)
				}
			}
			// Quantiles must be monotone in q.
			prev := math.Inf(-1)
			for _, q := range quantiles {
				v := h.Quantile(q)
				if v < prev {
					t.Fatalf("%s n=%d: quantiles not monotone at q=%v", name, n, q)
				}
				prev = v
			}
		}
	}
}

func TestTallyMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tally Tally
	xs := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(300)
		tally.Add(v)
		xs = append(xs, float64(v))
	}
	exact := Summarize(xs)
	got := tally.Summary()
	if got.N != exact.N || got.Min != exact.Min || got.Max != exact.Max {
		t.Fatalf("N/Min/Max: %+v vs %+v", got, exact)
	}
	if math.Abs(got.Mean-exact.Mean) > 1e-9 {
		t.Fatalf("Mean %v vs %v", got.Mean, exact.Mean)
	}
	if relDiff(got.Var, exact.Var) > 1e-6 {
		t.Fatalf("Var %v vs %v", got.Var, exact.Var)
	}
	for _, pair := range [][2]float64{
		{got.Median, exact.Median}, {got.P90, exact.P90}, {got.P99, exact.P99},
	} {
		if math.Abs(pair[0]-pair[1]) > 1+pair[1]/8 {
			t.Fatalf("quantile %v vs exact %v beyond bucket resolution", pair[0], pair[1])
		}
	}
}

func TestTallyZeroAndSingle(t *testing.T) {
	var tally Tally
	if s := tally.Summary(); s != (Summary{}) {
		t.Fatalf("empty tally summary = %+v", s)
	}
	tally.Add(42)
	s := tally.Summary()
	if s.N != 1 || s.Mean != 42 || s.Min != 42 || s.Max != 42 || s.Var != 0 {
		t.Fatalf("single summary = %+v", s)
	}
	if s.Median < 40 || s.Median > 42 || s.P99 < 40 || s.P99 > 42 {
		t.Fatalf("single quantiles = %+v", s)
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestTallyMerge: merging split streams must be bit-identical to feeding
// one Tally the whole stream — the property sweep aggregation relies on.
func TestTallyMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var whole, a, b, c Tally
	for i := 0; i < 3000; i++ {
		v := rng.Int63n(1 << 20)
		whole.Add(v)
		switch i % 3 {
		case 0:
			a.Add(v)
		case 1:
			b.Add(v)
		case 2:
			c.Add(v)
		}
	}
	var merged Tally
	merged.Merge(&a)
	merged.Merge(&b)
	merged.Merge(&c)
	if merged != whole {
		t.Fatalf("merged tally differs from whole-stream tally:\n%+v\nvs\n%+v",
			merged.Summary(), whole.Summary())
	}

	// Merging an empty tally is a no-op; merging into an empty tally copies.
	var empty Tally
	before := merged
	merged.Merge(&empty)
	if merged != before {
		t.Fatal("merging empty changed the tally")
	}
	var dst Tally
	dst.Merge(&whole)
	if dst != whole {
		t.Fatal("merge into empty did not copy")
	}
}

func TestLogHistMerge(t *testing.T) {
	var whole, a, b LogHist
	for v := int64(0); v < 500; v++ {
		whole.Add(v * v)
		if v%2 == 0 {
			a.Add(v * v)
		} else {
			b.Add(v * v)
		}
	}
	a.Merge(&b)
	if a != whole {
		t.Fatal("merged histogram differs from whole-stream histogram")
	}
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
}

// TestTallyMergeRangedMatchesFull is the property behind Tally.Merge adding
// only the buckets between the merged side's MinV and MaxV: on random
// streams — negative values (Add clamps them to bucket 0), the top bucket,
// single-valued sides (MinV == MaxV) and empty sides — the merged
// histogram equals a full LogHist.Merge and the whole-stream tally's.
func TestTallyMergeRangedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	draw := func(shape int) int64 {
		switch shape {
		case 0: // small, some negative
			return rng.Int63n(40) - 8
		case 1: // any magnitude, either sign
			v := rng.Int63() >> rng.Intn(63)
			if rng.Intn(4) == 0 {
				v = -v
			}
			return v
		default: // the extremes: the top bucket and the most negative value
			return []int64{math.MaxInt64, math.MaxInt64 - 1, 1 << 62, math.MinInt64, -1, 0}[rng.Intn(6)]
		}
	}
	fill := func(tl *Tally, whole *Tally) {
		n, shape := rng.Intn(6), rng.Intn(3)
		if rng.Intn(3) == 0 {
			n = rng.Intn(200)
		}
		constant := rng.Intn(4) == 0 // every observation equal: MinV == MaxV
		c := draw(shape)
		for range n {
			v := c
			if !constant {
				v = draw(shape)
			}
			tl.Add(v)
			whole.Add(v)
		}
	}
	for trial := 0; trial < 5000; trial++ {
		var a, b, whole Tally
		fill(&a, &whole)
		fill(&b, &whole)
		want := a.Hist
		want.Merge(&b.Hist)

		got := a
		got.Merge(&b)
		if got.Hist != want || got.Hist != whole.Hist {
			t.Fatalf("trial %d: ranged merge histogram differs from the full merge (a: %+v, b: %+v)",
				trial, a.Summary(), b.Summary())
		}
		// SumSq is a float sum, so its value depends on the summation
		// order; everything else is exact.
		if got.Count != whole.Count || got.Sum != whole.Sum || got.MinV != whole.MinV || got.MaxV != whole.MaxV {
			t.Fatalf("trial %d: merged %+v, whole stream %+v", trial, got, whole)
		}
		if got.SumSq != a.SumSq+b.SumSq && b.Count > 0 && a.Count > 0 {
			t.Fatalf("trial %d: merged SumSq %v, want %v", trial, got.SumSq, a.SumSq+b.SumSq)
		}
	}
}
