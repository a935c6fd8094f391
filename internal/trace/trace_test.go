package trace

import (
	"strings"
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/internal/jamming"
	"lowsensing/internal/sim"
)

func runTraced(t *testing.T, tr *Tracer, n int64, jam sim.Jammer) sim.Result {
	t.Helper()
	e, err := sim.NewEngine(sim.Params{
		Seed:       31,
		Arrivals:   arrivals.NewBatch(n),
		NewStation: core.MustFactory(core.Default()),
		Jammer:     jam,
		MaxSlots:   1 << 22,
		Recorder:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTracerRecordsAllResolvedSlots(t *testing.T) {
	tr := &Tracer{}
	r := runTraced(t, tr, 32, nil)
	if r.Completed != 32 {
		t.Fatalf("completed = %d", r.Completed)
	}
	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	succ, _, _, jammed := tr.CountOutcomes()
	if succ != 32 {
		t.Fatalf("successes in trace = %d, want 32", succ)
	}
	if jammed != 0 {
		t.Fatalf("jams in unjammed run = %d", jammed)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Slot <= events[i-1].Slot {
			t.Fatal("events out of order")
		}
	}
}

func TestTracerJammedEvents(t *testing.T) {
	iv, err := jamming.NewInterval(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Tracer{}
	e, err := sim.NewEngine(sim.Params{
		Seed:       31,
		Arrivals:   arrivals.NewBatch(4),
		NewStation: core.MustFactory(core.Default()),
		Jammer:     iv,
		MaxSlots:   500,
		Recorder:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	_, _, _, jammed := tr.CountOutcomes()
	if jammed != len(tr.Events()) {
		t.Fatalf("all events should be jammed: %d of %d", jammed, len(tr.Events()))
	}
	if !strings.Contains(tr.Timeline(0), "!") {
		t.Fatal("timeline missing jam glyphs")
	}
}

func TestTracerLimitAndDropped(t *testing.T) {
	tr := &Tracer{Limit: 5}
	runTraced(t, tr, 64, nil)
	if len(tr.Events()) != 5 {
		t.Fatalf("events = %d, want 5", len(tr.Events()))
	}
	if tr.Dropped() == 0 {
		t.Fatal("no drops recorded")
	}
	if !strings.Contains(tr.Timeline(0), "dropped") {
		t.Fatal("timeline missing drop marker")
	}
	if !strings.Contains(tr.Table(), "dropped") {
		t.Fatal("table missing drop marker")
	}
}

func TestTimelineGapsAndWrapping(t *testing.T) {
	tr := &Tracer{}
	tr.events = []Event{
		{Slot: 0, Outcome: sim.OutcomeSuccess},
		{Slot: 10, Outcome: sim.OutcomeNoisy},
		{Slot: 11, Outcome: sim.OutcomeEmpty},
	}
	line := tr.Timeline(80)
	if line != "S(+9)x." {
		t.Fatalf("timeline = %q", line)
	}
	wrapped := tr.Timeline(3)
	if !strings.Contains(wrapped, "\n") {
		t.Fatalf("narrow timeline did not wrap: %q", wrapped)
	}
}

func TestGlyphs(t *testing.T) {
	cases := []struct {
		ev   Event
		want byte
	}{
		{Event{Outcome: sim.OutcomeSuccess}, 'S'},
		{Event{Outcome: sim.OutcomeNoisy}, 'x'},
		{Event{Outcome: sim.OutcomeEmpty}, '.'},
		{Event{Outcome: sim.OutcomeNoisy, Jammed: true}, '!'},
	}
	for _, c := range cases {
		if got := c.ev.Glyph(); got != c.want {
			t.Fatalf("glyph = %c, want %c", got, c.want)
		}
	}
}

func TestTableFormat(t *testing.T) {
	tr := &Tracer{}
	runTraced(t, tr, 8, nil)
	tab := tr.Table()
	if !strings.Contains(tab, "outcome") {
		t.Fatal("table missing header")
	}
	if got := strings.Count(tab, "\n"); got != len(tr.Events())+1 {
		t.Fatalf("table lines = %d, want %d", got, len(tr.Events())+1)
	}
}
