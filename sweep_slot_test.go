package lowsensing

import (
	"reflect"
	"testing"

	"lowsensing/internal/runner"
)

// slotReuseSpec is a sweep whose consecutive jobs alternate between
// single-class and multi-class runs and between truncated and untruncated
// ones, so a runner slot that is reused — by the next job at Workers 1, by
// the job a reorder window further on at more workers — always held a run
// of another shape. Shape cycles with period 6 jobs and the cap with
// period 18, neither of which divides a window of 32 or 64 slots.
const slotReuseSpec = `{
	"id": "slot-reuse",
	"seed": 31,
	"reps": 2,
	"base": {},
	"axes": [
		{"name": "round", "variants": [{"label": "0"}, {"label": "1"}, {"label": "2"}, {"label": "3"}]},
		{"name": "cap", "variants": [
			{"label": "free"},
			{"label": "trunc", "patch": {"max_slots": 12}},
			{"label": "trunc-late", "patch": {"max_slots": 30}}]},
		{"name": "shape", "variants": [
			{"label": "single", "patch": {"arrivals": {"kind": "batch", "n": 12}}},
			{"label": "multi", "patch": {"classes": [
				{"name": "a", "arrivals": {"kind": "batch", "n": 6}},
				{"name": "b", "arrivals": {"kind": "bernoulli", "rate": 0.2, "n": 6}, "protocol": {"kind": "beb"}}]}},
			{"label": "single-beb", "patch": {"arrivals": {"kind": "bernoulli", "rate": 0.1, "n": 10}, "protocol": {"kind": "beb"}}}]}
	]}`

// TestSweepSlotReuseLeaksNothing runs every job of slotReuseSpec into the
// runner's reused slots and checks each Result against a fresh
// Scenario.Run of the same point and seed, and every PointResult against
// folding those fresh Results, at Workers 1, 2 and 4.
func TestSweepSlotReuseLeaksNothing(t *testing.T) {
	ss, err := ParseSweepSpec([]byte(slotReuseSpec))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ss.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	points := sw.Points()
	n := len(points) * sw.reps
	fresh := make([]Result, n)
	want := make([]PointResult, len(points))
	for i := range fresh {
		pi, rep := i/sw.reps, i%sw.reps
		sc := points[pi].Scenario
		sc.Seed = runner.DeriveSeed(sw.seed, sw.id, pi, rep)
		if fresh[i], err = sc.Run(); err != nil {
			t.Fatal(err)
		}
		if rep == 0 {
			want[pi] = PointResult{Point: points[pi]}
		}
		want[pi].fold(&fresh[i])
	}
	var truncFlips, classFlips int
	for i := 1; i < n; i++ {
		if fresh[i].Truncated != fresh[i-1].Truncated {
			truncFlips++
		}
		if (fresh[i].Classes == nil) != (fresh[i-1].Classes == nil) {
			classFlips++
		}
	}
	if truncFlips < n/6 || classFlips < n/3 {
		t.Fatalf("consecutive jobs flip truncation %d times and class shape %d times in %d jobs; the grid no longer alternates", truncFlips, classFlips, n)
	}

	for _, workers := range []int{1, 2, 4} {
		got := make([]Result, n)
		err := runner.Stream(runner.New(workers), sw.jobs(points), func(i int, tr *timedResult) error {
			got[i] = tr.r
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], fresh[i]) {
				t.Fatalf("workers=%d: job %d (%s rep %d) left\n%+v\nwant a fresh run's\n%+v",
					workers, i, points[i/sw.reps], i%sw.reps, got[i], fresh[i])
			}
		}
		prs, err := sw.Workers(workers).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(prs, want) {
			t.Fatalf("workers=%d: PointResults differ from folding fresh runs", workers)
		}
	}
}
