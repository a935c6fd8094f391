package metrics

import (
	"strings"
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/internal/sim"
	"lowsensing/obs"
)

func collect(t *testing.T, c *Collector, n int64) sim.Result {
	t.Helper()
	e, err := sim.NewEngine(sim.Params{
		Seed:       21,
		Arrivals:   arrivals.NewBatch(n),
		NewStation: core.MustFactory(core.Default()),
		MaxSlots:   1 << 22,
		Recorder:   c,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(e)
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCollectorSamples(t *testing.T) {
	c := &Collector{}
	r := collect(t, c, 64)
	if r.Completed != 64 {
		t.Fatalf("completed = %d", r.Completed)
	}
	samples := c.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	first := samples[0]
	if first.Arrived != 64 {
		t.Fatalf("first sample arrived = %d", first.Arrived)
	}
	if first.Backlog > 64 || first.Backlog < 63 {
		t.Fatalf("first sample backlog = %d", first.Backlog)
	}
	if first.Contention <= 0 {
		t.Fatal("contention not positive at start")
	}
	last := samples[len(samples)-1]
	if last.Backlog != 0 {
		t.Fatalf("final backlog = %d", last.Backlog)
	}
	// The last departure leaves no active window: the potential and the
	// window distribution are all zero.
	if last.Potential != (core.Potential{}) || last.WMin != 0 || last.WMedian != 0 || last.WMax != 0 {
		t.Fatalf("final sample = %+v", last)
	}
	floor := core.Default().WMin
	var maxWin float64
	for i, s := range samples {
		if i > 0 && s.Slot <= samples[i-1].Slot {
			t.Fatalf("sample slots not increasing at %d", i)
		}
		if s.Potential.N == 0 {
			continue
		}
		if s.WMin < floor {
			t.Fatalf("sample %d: w_min %v below the algorithm's floor %v", i, s.WMin, floor)
		}
		if s.WMin > s.WMedian || s.WMedian > s.WMax {
			t.Fatalf("sample %d: window order violated: %+v", i, s)
		}
		maxWin = max(maxWin, s.WMax)
	}
	// A 64-packet batch must grow some window beyond the floor.
	if maxWin <= floor {
		t.Fatalf("windows never grew: max %v", maxWin)
	}
}

func TestCollectorEveryThins(t *testing.T) {
	dense := &Collector{}
	collect(t, dense, 64)
	sparse := &Collector{Every: 50}
	collect(t, sparse, 64)
	if len(sparse.Samples()) >= len(dense.Samples()) {
		t.Fatalf("thinning failed: %d vs %d", len(sparse.Samples()), len(dense.Samples()))
	}
	for i := 1; i < len(sparse.Samples()); i++ {
		if sparse.Samples()[i].Slot-sparse.Samples()[i-1].Slot < 50 {
			t.Fatalf("samples closer than Every: %d then %d",
				sparse.Samples()[i-1].Slot, sparse.Samples()[i].Slot)
		}
	}
}

func TestMaxBacklogAndMinImplicit(t *testing.T) {
	c := &Collector{}
	collect(t, c, 128)
	if mb := c.MaxBacklog(); mb < 120 || mb > 128 {
		t.Fatalf("max backlog = %d", mb)
	}
	if m := c.MinImplicitThroughput(); m <= 0 || m > 1.01 {
		t.Fatalf("min implicit throughput = %v", m)
	}
	empty := &Collector{}
	if empty.MinImplicitThroughput() != 1 || empty.MaxBacklog() != 0 {
		t.Fatal("empty collector defaults wrong")
	}
}

func TestSeriesExtraction(t *testing.T) {
	c := &Collector{}
	collect(t, c, 32)
	n := len(c.Samples())
	for _, name := range []string{"slot", "backlog", "implicit", "contention", "phi", "potN", "potH", "potL"} {
		s := c.Series(name)
		if len(s) != n {
			t.Fatalf("series %q length %d, want %d", name, len(s), n)
		}
	}
	// phi must equal the weighted sum of its parts at every sample.
	p := core.DefaultPotentialParams()
	for i, s := range c.Samples() {
		want := p.Alpha1*s.Potential.N + p.Alpha2*s.Potential.H + p.Alpha3*s.Potential.L
		if diff := want - s.Potential.Phi; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("sample %d: phi inconsistent", i)
		}
	}
}

func TestSeriesUnknownPanics(t *testing.T) {
	c := &Collector{}
	collect(t, c, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown series did not panic")
		}
	}()
	c.Series("nope")
}

func TestSummarizeEnergy(t *testing.T) {
	c := &Collector{}
	r := collect(t, c, 64)
	es := SummarizeEnergy(r)
	if es.Undelivered != 0 {
		t.Fatalf("undelivered = %d", es.Undelivered)
	}
	if es.Sends.N != 64 || es.Accesses.N != 64 || es.Latency.N != 64 {
		t.Fatalf("summary sizes: %+v", es)
	}
	// Every packet sends at least once (its success).
	if es.Sends.Min < 1 {
		t.Fatalf("min sends = %v", es.Sends.Min)
	}
	// Accesses = sends + listens, so the means must add up.
	if diff := es.Accesses.Mean - es.Sends.Mean - es.Listens.Mean; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("access mean %v != sends %v + listens %v", es.Accesses.Mean, es.Sends.Mean, es.Listens.Mean)
	}
	if es.Latency.Min < 1 {
		t.Fatalf("min latency = %v", es.Latency.Min)
	}
}

// TestCollectorUnboundPanics: a Collector attached without Bind fails
// loudly, naming the missing call, instead of sampling nothing.
func TestCollectorUnboundPanics(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "Bind") {
			t.Fatalf("panic %q does not name Bind", msg)
		}
	}()
	(&Collector{}).RecordSlot(obs.SlotEvent{})
}

func TestSummarizeEnergyUndelivered(t *testing.T) {
	var r sim.Result
	for _, p := range []sim.PacketStats{
		{Arrival: 0, Departure: 5, Sends: 2, Listens: 3},
		{Arrival: 0, Departure: -1, Sends: 7, Listens: 1},
	} {
		r.Energy.AddPacket(p)
	}
	es := SummarizeEnergy(r)
	if es.Undelivered != 1 {
		t.Fatalf("undelivered = %d", es.Undelivered)
	}
	if es.Latency.N != 1 || es.Latency.Mean != 6 {
		t.Fatalf("latency summary = %+v", es.Latency)
	}
	if es.Accesses.Max != 8 {
		t.Fatalf("max accesses = %v", es.Accesses.Max)
	}
}
