package trace

import (
	"strings"
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/internal/sim"
)

func runTracked(t *testing.T, wt *WindowTracker, n int64) sim.Result {
	t.Helper()
	e, err := sim.NewEngine(sim.Params{
		Seed:       41,
		Arrivals:   arrivals.NewBatch(n),
		NewStation: core.MustFactory(core.Default()),
		MaxSlots:   1 << 22,
		Recorder:   wt,
	})
	if err != nil {
		t.Fatal(err)
	}
	wt.Bind(e)
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWindowTrackerSamples(t *testing.T) {
	wt := &WindowTracker{}
	r := runTracked(t, wt, 64)
	if r.Completed != 64 {
		t.Fatalf("completed = %d", r.Completed)
	}
	samples := wt.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	cfg := core.Default()
	for i, s := range samples {
		if s.Count > 0 {
			if s.WMin < cfg.WMin {
				t.Fatalf("sample %d: wmin %v below algorithm floor", i, s.WMin)
			}
			if s.WMin > s.WMedian || s.WMedian > s.WMax {
				t.Fatalf("sample %d: order violated: %+v", i, s)
			}
		}
		if i > 0 && s.Slot <= samples[i-1].Slot {
			t.Fatal("slots not increasing")
		}
	}
	// Final sample (last packet departing) has zero active stations.
	last := samples[len(samples)-1]
	if last.Count != 0 || last.WMax != 0 {
		t.Fatalf("final sample = %+v", last)
	}
	// Windows must have grown beyond the floor at some point under a
	// 64-packet batch.
	var maxWin float64
	for _, s := range samples {
		maxWin = max(maxWin, s.WMax)
	}
	if maxWin <= cfg.WMin {
		t.Fatalf("windows never grew: %v", maxWin)
	}
}

func TestWindowTrackerEvery(t *testing.T) {
	dense := &WindowTracker{}
	runTracked(t, dense, 32)
	sparse := &WindowTracker{Every: 40}
	runTracked(t, sparse, 32)
	if len(sparse.Samples()) >= len(dense.Samples()) {
		t.Fatal("thinning failed")
	}
}

func TestWindowTrackerSeries(t *testing.T) {
	wt := &WindowTracker{}
	runTracked(t, wt, 16)
	n := len(wt.Samples())
	for _, name := range []string{"wmax", "wmedian", "wmin", "count", "slot"} {
		if got := len(wt.Series(name)); got != n {
			t.Fatalf("series %q length %d", name, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown series did not panic")
		}
	}()
	wt.Series("nope")
}

func TestWindowTrackerTable(t *testing.T) {
	wt := &WindowTracker{}
	runTracked(t, wt, 16)
	full := wt.Table(0)
	if !strings.Contains(full, "w_max") {
		t.Fatal("missing header")
	}
	thin := wt.Table(5)
	if got := strings.Count(thin, "\n"); got != 6 {
		t.Fatalf("thinned table has %d lines, want 6", got)
	}
}
