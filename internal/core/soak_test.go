package core_test

import (
	. "lowsensing/internal/core"

	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/jamming"
	"lowsensing/internal/sim"
	"lowsensing/obs"
)

// TestLongStreamSoak runs half a million slots of jammed, steadily arriving
// traffic and checks the paper's "for all t" guarantees hold throughout:
// implicit throughput never collapses at any resolved slot and the backlog
// stays bounded. Skipped with -short.
func TestLongStreamSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const horizon = 500_000
	src, err := arrivals.NewBernoulli(0.15, 0, 424242)
	if err != nil {
		t.Fatal(err)
	}
	jam, err := jamming.NewRandom(0.2, 0, 424243)
	if err != nil {
		t.Fatal(err)
	}
	w := &soakWatch{minImplicit: 1}
	e, err := sim.NewEngine(sim.Params{
		Seed:       424244,
		Arrivals:   src,
		NewStation: MustFactory(Default()),
		Jammer:     jam,
		MaxSlots:   horizon,
		Recorder:   w,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Bind(e)
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	if r.Arrived < horizon/10 {
		t.Fatalf("suspiciously few arrivals: %d", r.Arrived)
	}
	if w.minImplicit < 0.05 {
		t.Fatalf("implicit throughput collapsed to %v at some checkpoint", w.minImplicit)
	}
	if w.maxBacklog > 2000 {
		t.Fatalf("backlog blew up to %d", w.maxBacklog)
	}
	// Everything but the in-flight tail must have been delivered.
	if undelivered := r.Arrived - r.Completed; undelivered > 200 {
		t.Fatalf("%d packets undelivered at horizon", undelivered)
	}
}

// soakWatch is a bound recorder tracking the lowest implicit throughput and
// the highest backlog over every resolved slot.
type soakWatch struct {
	e           *sim.Engine
	minImplicit float64
	maxBacklog  int64
}

func (w *soakWatch) Bind(e *sim.Engine) { w.e = e }

func (w *soakWatch) RecordSlot(ev obs.SlotEvent) {
	w.minImplicit = min(w.minImplicit, w.e.ImplicitThroughputNow())
	w.maxBacklog = max(w.maxBacklog, ev.Backlog)
}

func (w *soakWatch) RecordPacket(obs.PacketEvent) {}
