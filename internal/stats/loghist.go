package stats

import (
	"math"
	"math/bits"
)

// LogHist is a fixed-memory log-bucketed histogram of nonnegative int64
// observations, built for streaming accumulation over arbitrarily long
// simulations: Add is O(1), the footprint is constant (one counter per
// bucket), and quantiles are answered by rank interpolation inside the
// matching bucket.
//
// Bucket layout: values 0..15 get exact unit-width buckets; every larger
// octave [2^o, 2^(o+1)) is split into 8 sub-buckets, so the relative
// resolution above 16 is at most 1/8. That is ample for the order-of-
// magnitude quantities the experiments track (accesses, latencies) while
// keeping the whole histogram under 4 KiB.
type LogHist struct {
	counts [logHistBuckets]int64
	n      int64
}

const (
	logHistExact   = 16 // values 0..15 are exact
	logHistSub     = 8  // sub-buckets per octave above that
	logHistOctaves = 59 // octaves 4..62 cover all positive int64 values
	logHistBuckets = logHistExact + logHistOctaves*logHistSub
)

// logHistIndex maps a nonnegative value to its bucket.
func logHistIndex(v int64) int {
	if v < logHistExact {
		return int(v)
	}
	o := bits.Len64(uint64(v)) - 1       // v in [2^o, 2^(o+1))
	sub := int((v >> (uint(o) - 3)) & 7) // top 3 bits below the leading one
	return logHistExact + (o-4)*logHistSub + sub
}

// logHistBounds returns the half-open value range [lo, hi) of bucket i.
// The top bucket's upper bound clamps to MaxInt64.
func logHistBounds(i int) (lo, hi int64) {
	if i < logHistExact {
		return int64(i), int64(i) + 1
	}
	j := i - logHistExact
	o := uint(j/logHistSub + 4)
	sub := uint64(j % logHistSub)
	width := uint64(1) << (o - 3)
	ulo := uint64(1)<<o + sub*width
	uhi := ulo + width
	if uhi > math.MaxInt64 {
		uhi = math.MaxInt64
	}
	return int64(ulo), int64(uhi)
}

// Add records one observation. Negative values clamp to 0 (the metrics fed
// through here — counts and latencies — are nonnegative by construction).
func (h *LogHist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[logHistIndex(v)]++
	h.n++
}

// N returns the number of observations recorded.
func (h *LogHist) N() int64 { return h.n }

// Merge folds another histogram into this one: the result is identical to
// having Added both observation streams to a single histogram.
func (h *LogHist) Merge(o *LogHist) {
	h.mergeBuckets(o, 0, logHistBuckets-1)
}

// mergeBuckets is Merge for a histogram whose observations all lie in
// buckets lo..hi: it adds only that range, which is what keeps folding a
// short run's Tally from touching all 488 buckets.
func (h *LogHist) mergeBuckets(o *LogHist, lo, hi int) {
	dst, src := h.counts[lo:hi+1], o.counts[lo:hi+1]
	for i, c := range src {
		dst[i] += c
	}
	h.n += o.n
}

// Quantile returns the q-quantile (0 <= q <= 1) using the same rank
// convention as Quantile on a sorted sample: the rank q·(n-1) is linearly
// interpolated between the values at the two surrounding integer ranks.
// The result is exact for values below 16 and within the bucket's 1/8
// relative resolution above. An empty histogram returns 0.
func (h *LogHist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	r := q * float64(h.n-1)
	k := int64(math.Floor(r))
	lo := h.valueAtRank(k)
	frac := r - float64(k)
	if frac == 0 {
		return lo
	}
	hi := h.valueAtRank(k + 1)
	return lo*(1-frac) + hi*frac
}

// valueAtRank estimates the value of the k-th smallest observation
// (0-based) by spreading each bucket's occupants evenly over the integers
// it covers. Monotone in k.
func (h *LogHist) valueAtRank(k int64) float64 {
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if k < cum+c {
			blo, bhi := logHistBounds(i)
			span := float64(bhi - 1 - blo)
			if c == 1 {
				return float64(blo) + span/2
			}
			return float64(blo) + span*float64(k-cum)/float64(c-1)
		}
		cum += c
	}
	// Unreachable for k in [0, n); keep the compiler honest.
	return math.NaN()
}

// Tally is the full streaming accumulator for one nonnegative integer
// metric: exact count, sum, min and max, a running second moment for the
// variance, and a LogHist for quantile queries. The zero value is ready to
// use, memory is constant regardless of how many observations stream
// through, and two Tallys fed the same sequence are bit-identical.
type Tally struct {
	Count int64
	Sum   int64
	SumSq float64
	MinV  int64
	MaxV  int64
	Hist  LogHist
}

// Add records one observation.
func (t *Tally) Add(v int64) {
	if t.Count == 0 {
		t.MinV, t.MaxV = v, v
	} else {
		if v < t.MinV {
			t.MinV = v
		}
		if v > t.MaxV {
			t.MaxV = v
		}
	}
	t.Count++
	t.Sum += v
	t.SumSq += float64(v) * float64(v)
	t.Hist.Add(v)
}

// Merge folds another accumulator into this one: the result is identical
// to having Added both observation streams to a single Tally. Sweep
// aggregation uses this to combine replications without retaining samples.
// Every observation of o lies between its MinV and MaxV (clamped to 0 as
// Add clamps them), so only the buckets of that range are added.
func (t *Tally) Merge(o *Tally) {
	if o.Count == 0 {
		return
	}
	if t.Count == 0 {
		t.MinV, t.MaxV = o.MinV, o.MaxV
	} else {
		if o.MinV < t.MinV {
			t.MinV = o.MinV
		}
		if o.MaxV > t.MaxV {
			t.MaxV = o.MaxV
		}
	}
	t.Count += o.Count
	t.Sum += o.Sum
	t.SumSq += o.SumSq
	t.Hist.mergeBuckets(&o.Hist, logHistIndex(max(o.MinV, 0)), logHistIndex(max(o.MaxV, 0)))
}

// Mean returns the exact mean (0 if empty): the sum is kept as an integer,
// so the division is the only rounding step.
func (t *Tally) Mean() float64 {
	if t.Count == 0 {
		return 0
	}
	return float64(t.Sum) / float64(t.Count)
}

// Var returns the unbiased sample variance from the running moments,
// clamped at 0 against cancellation (0 if fewer than 2 observations).
func (t *Tally) Var() float64 {
	if t.Count < 2 {
		return 0
	}
	mean := t.Mean()
	v := (t.SumSq - float64(t.Count)*mean*mean) / float64(t.Count-1)
	if v < 0 {
		v = 0
	}
	return v
}

// Quantile returns the histogram quantile clamped to the exact observed
// [min, max] range.
func (t *Tally) Quantile(q float64) float64 {
	if t.Count == 0 {
		return 0
	}
	v := t.Hist.Quantile(q)
	if v < float64(t.MinV) {
		v = float64(t.MinV)
	}
	if v > float64(t.MaxV) {
		v = float64(t.MaxV)
	}
	return v
}

// Summary converts the accumulator into the package's standard Summary.
// N, Mean, Min and Max are exact; Var/Std come from the running moments;
// Median/P90/P99 are histogram quantiles (exact below 16, within 1/8
// relative resolution above).
func (t *Tally) Summary() Summary {
	if t.Count == 0 {
		return Summary{}
	}
	v := t.Var()
	return Summary{
		N:      int(t.Count),
		Mean:   t.Mean(),
		Var:    v,
		Std:    math.Sqrt(v),
		Min:    float64(t.MinV),
		Max:    float64(t.MaxV),
		Median: t.Quantile(0.5),
		P90:    t.Quantile(0.9),
		P99:    t.Quantile(0.99),
	}
}
