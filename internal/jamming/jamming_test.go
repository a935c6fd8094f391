package jamming

import (
	"math"
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/internal/sim"
)

func TestRandomValidation(t *testing.T) {
	for _, rate := range []float64{0, -0.2, 1.1} {
		if _, err := NewRandom(rate, 0, 1); err == nil {
			t.Fatalf("rate %v accepted", rate)
		}
	}
}

func TestRandomJammedDeterministicPerSlot(t *testing.T) {
	a, _ := NewRandom(0.5, 0, 42)
	b, _ := NewRandom(0.5, 0, 42)
	for slot := int64(0); slot < 1000; slot++ {
		if a.Jammed(slot) != b.Jammed(slot) {
			t.Fatalf("slot %d differs between identical jammers", slot)
		}
	}
}

func TestRandomJammedRate(t *testing.T) {
	j, _ := NewRandom(0.3, 0, 7)
	hits := 0
	const n = 100000
	for slot := int64(0); slot < n; slot++ {
		if j.Jammed(slot) {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-0.3) > 0.01 {
		t.Fatalf("jam rate = %v", got)
	}
}

func TestRandomCountRangeMoments(t *testing.T) {
	j, _ := NewRandom(0.1, 0, 11)
	const width = 1000
	const reps = 2000
	var sum float64
	for i := 0; i < reps; i++ {
		from := int64(i) * width
		sum += float64(j.CountRange(from, from+width))
	}
	mean := sum / reps
	if math.Abs(mean-100) > 3 {
		t.Fatalf("CountRange mean = %v, want ~100", mean)
	}
	if j.CountRange(10, 10) != 0 || j.CountRange(10, 5) != 0 {
		t.Fatal("empty range counted")
	}
}

func TestRandomBudget(t *testing.T) {
	j, _ := NewRandom(1, 5, 1)
	var total int64
	for slot := int64(0); slot < 100; slot++ {
		if j.Jammed(slot) {
			total++
		}
	}
	if total != 5 {
		t.Fatalf("budgeted jams = %d, want 5", total)
	}
	if j.CountRange(0, 1000) != 0 {
		t.Fatal("budget exceeded via CountRange")
	}

	j2, _ := NewRandom(1, 5, 1)
	if got := j2.CountRange(0, 100); got != 5 {
		t.Fatalf("CountRange with budget = %d, want 5", got)
	}
	if j2.Jammed(500) {
		t.Fatal("budget exceeded via Jammed")
	}
}

func TestInterval(t *testing.T) {
	if _, err := NewInterval(5, 5); err == nil {
		t.Fatal("empty interval accepted")
	}
	iv, err := NewInterval(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Jammed(9) || !iv.Jammed(10) || !iv.Jammed(19) || iv.Jammed(20) {
		t.Fatal("interval membership wrong")
	}
	cases := []struct {
		from, to, want int64
	}{
		{0, 5, 0}, {0, 15, 5}, {12, 18, 6}, {15, 30, 5}, {25, 30, 0}, {0, 100, 10},
	}
	for _, c := range cases {
		if got := iv.CountRange(c.from, c.to); got != c.want {
			t.Fatalf("CountRange(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestAdaptiveWithoutEngine(t *testing.T) {
	a, err := NewAdaptive(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Jammed(0) {
		t.Fatal("unbound adaptive jammer jammed")
	}
	if a.CountRange(0, 100) != 0 {
		t.Fatal("adaptive CountRange nonzero")
	}
	if _, err := NewAdaptive(-1, 0); err == nil {
		t.Fatal("negative threshold accepted")
	}
}

func TestAdaptiveJamsOnBacklog(t *testing.T) {
	// Batch of 64 LSB packets with an adaptive jammer that jams while the
	// backlog exceeds 64-8: early active slots it observes get jammed, and
	// the budget caps total jams.
	jam, err := NewAdaptive(56, 20)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(sim.Params{
		Seed:       5,
		Arrivals:   arrivals.NewBatch(64),
		NewStation: core.MustFactory(core.Default()),
		Jammer:     jam,
		MaxSlots:   1 << 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 64 {
		t.Fatalf("completed = %d", r.Completed)
	}
	if r.JammedSlots == 0 {
		t.Fatal("adaptive jammer never fired")
	}
	if r.JammedSlots > 20 {
		t.Fatalf("budget exceeded: %d jams", r.JammedSlots)
	}
}

func TestReactiveTargetedValidation(t *testing.T) {
	if _, err := NewReactiveTargeted(-1, 0); err == nil {
		t.Fatal("negative target accepted")
	}
}

func TestReactiveTargetedJamsOnlyTarget(t *testing.T) {
	j, err := NewReactiveTargeted(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.JammedReactive(0, []int64{1, 2, 3}) {
		t.Fatal("jammed non-target senders")
	}
	if !j.JammedReactive(1, []int64{3, 7}) {
		t.Fatal("did not jam target")
	}
	if j.Jammed(5) || j.CountRange(0, 10) != 0 {
		t.Fatal("reactive jammer jammed passively")
	}
	if j.Spent() != 1 {
		t.Fatalf("spent = %d", j.Spent())
	}
}

func TestReactiveTargetedBudget(t *testing.T) {
	j, _ := NewReactiveTargeted(1, 2)
	for i := 0; i < 5; i++ {
		j.JammedReactive(int64(i), []int64{1})
	}
	if j.Spent() != 2 {
		t.Fatalf("spent = %d, want budget 2", j.Spent())
	}
}

func TestReactiveAll(t *testing.T) {
	j := NewReactiveAll(3)
	if j.JammedReactive(0, nil) {
		t.Fatal("jammed an empty slot")
	}
	for i := 0; i < 5; i++ {
		j.JammedReactive(int64(i), []int64{int64(i)})
	}
	if j.Spent() != 3 {
		t.Fatalf("spent = %d, want 3", j.Spent())
	}
	if j.Jammed(0) || j.CountRange(0, 5) != 0 {
		t.Fatal("passive jamming by ReactiveAll")
	}
}

func TestReactiveAllStallsSystemUntilBudgetExhausted(t *testing.T) {
	// With budget J, ReactiveAll blocks the first J would-be transmissions;
	// the run must still complete afterwards (Theorem 1.9 flavor).
	jam := NewReactiveAll(50)
	e, err := sim.NewEngine(sim.Params{
		Seed:       9,
		Arrivals:   arrivals.NewBatch(32),
		NewStation: core.MustFactory(core.Default()),
		Jammer:     jam,
		MaxSlots:   1 << 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 32 {
		t.Fatalf("completed = %d", r.Completed)
	}
	if jam.Spent() != 50 {
		t.Fatalf("spent = %d, want full budget", jam.Spent())
	}
	if r.JammedSlots != 50 {
		t.Fatalf("JammedSlots = %d", r.JammedSlots)
	}
}
