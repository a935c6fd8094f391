package core

import (
	"math"
	"testing"
	"testing/quick"

	"lowsensing/prng"
)

func TestContention(t *testing.T) {
	if c := Contention(nil); c != 0 {
		t.Fatalf("empty contention = %v", c)
	}
	got := Contention([]float64{2, 4, 8})
	want := 0.5 + 0.25 + 0.125
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("contention = %v, want %v", got, want)
	}
}

func TestContentionIsExpectedSenders(t *testing.T) {
	// The defining property (§4.1): C(t) is the expected number of senders.
	// Verify empirically: windows {10, 20}, unconditional send probability
	// 1/w each.
	rng := prng.New(1)
	windows := []float64{10, 20}
	cfg := Default()
	const n = 400000
	var senders int64
	for i := 0; i < n; i++ {
		for _, w := range windows {
			if rng.Bernoulli(cfg.AccessProb(w) * cfg.SendProbGivenAccess(w)) {
				senders++
			}
		}
	}
	got := float64(senders) / n
	want := Contention(windows)
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("empirical sender rate %v, contention %v", got, want)
	}
}

func TestRegimeClassify(t *testing.T) {
	b := DefaultRegimeBounds(Default()) // Low=1/8, High=2
	cases := []struct {
		c    float64
		want Regime
	}{
		{0, RegimeLow},
		{0.1, RegimeLow},
		{1 / 8.0, RegimeGood},
		{1, RegimeGood},
		{2, RegimeGood},
		{2.001, RegimeHigh},
		{50, RegimeHigh},
	}
	for _, c := range cases {
		if got := b.Classify(c.c); got != c.want {
			t.Fatalf("Classify(%v) = %v, want %v", c.c, got, c.want)
		}
	}
}

func TestRegimeString(t *testing.T) {
	if RegimeLow.String() != "low" || RegimeGood.String() != "good" || RegimeHigh.String() != "high" {
		t.Fatal("Regime strings wrong")
	}
	if Regime(42).String() == "" {
		t.Fatal("unknown regime should format")
	}
}

func TestMeasureEmpty(t *testing.T) {
	pot := Measure(nil, DefaultPotentialParams())
	if pot.Phi != 0 || pot.N != 0 || pot.H != 0 || pot.L != 0 {
		t.Fatalf("empty potential = %+v", pot)
	}
}

func TestMeasureKnown(t *testing.T) {
	p := DefaultPotentialParams()
	windows := []float64{math.E * math.E, math.E * math.E * math.E} // ln = 2, 3
	pot := Measure(windows, p)
	if pot.N != 2 {
		t.Fatalf("N = %v", pot.N)
	}
	wantH := 0.5 + 1.0/3
	if math.Abs(pot.H-wantH) > 1e-12 {
		t.Fatalf("H = %v, want %v", pot.H, wantH)
	}
	wmax := windows[1]
	wantL := wmax / 9
	if math.Abs(pot.L-wantL) > 1e-9 {
		t.Fatalf("L = %v, want %v", pot.L, wantL)
	}
	wantPhi := p.Alpha1*2 + p.Alpha2*wantH + p.Alpha3*wantL
	if math.Abs(pot.Phi-wantPhi) > 1e-9 {
		t.Fatalf("Phi = %v, want %v", pot.Phi, wantPhi)
	}
}

func TestMeasureProperties(t *testing.T) {
	// Properties from §4.2: adding a packet at WMin increases Phi by at
	// least alpha1; all terms nonnegative for windows > 1.
	params := DefaultPotentialParams()
	cfg := Default()
	rng := prng.New(3)
	f := func(nRaw uint8) bool {
		n := int(nRaw%32) + 1
		windows := make([]float64, n)
		for i := range windows {
			windows[i] = cfg.WMin * (1 + 100*rng.Float64())
		}
		pot := Measure(windows, params)
		if pot.N != float64(n) || pot.H <= 0 || pot.L <= 0 || pot.Phi <= 0 {
			return false
		}
		grown := Measure(append(windows, cfg.WMin), params)
		return grown.Phi >= pot.Phi+params.Alpha1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureLDominatedByLargestWindow(t *testing.T) {
	params := DefaultPotentialParams()
	small := Measure([]float64{8, 8, 8}, params)
	big := Measure([]float64{8, 8, 1e6}, params)
	if big.L <= small.L {
		t.Fatalf("L not driven by wmax: %v vs %v", big.L, small.L)
	}
	lw := math.Log(1e6)
	if math.Abs(big.L-1e6/(lw*lw)) > 1e-6 {
		t.Fatalf("L = %v", big.L)
	}
}
