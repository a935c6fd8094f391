package sim

import (
	"io"
	"runtime"
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/obs"
)

// eventLog records the interleaved slot/packet stream so ordering between
// the two kinds can be asserted.
type eventLog struct {
	entries []logEntry
}

type logEntry struct {
	slot   *obs.SlotEvent
	packet *obs.PacketEvent
}

func (l *eventLog) RecordSlot(ev obs.SlotEvent) { l.entries = append(l.entries, logEntry{slot: &ev}) }
func (l *eventLog) RecordPacket(p obs.PacketEvent) {
	l.entries = append(l.entries, logEntry{packet: &p})
}

// TestRecorderStreamContract locks the Recorder event contract: one slot
// event per resolved slot in order, one closed lifecycle per packet, and
// the PacketEvents of packets departing at slot t arriving before t's
// SlotEvent.
func TestRecorderStreamContract(t *testing.T) {
	const n = 16
	lg := &eventLog{}
	e, err := NewEngine(Params{
		Seed:          3,
		Arrivals:      arrivals.NewBatch(n),
		NewStation:    core.MustFactory(core.Default()),
		ReuseStations: true,
		Recorder:      lg,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != n {
		t.Fatalf("completed %d of %d", r.Completed, n)
	}

	var slots, packets int64
	lastSlot := int64(-1)
	seen := map[int64]bool{}
	for _, en := range lg.entries {
		switch {
		case en.slot != nil:
			slots++
			if en.slot.Slot <= lastSlot {
				t.Fatalf("slot events out of order: %d after %d", en.slot.Slot, lastSlot)
			}
			lastSlot = en.slot.Slot
		case en.packet != nil:
			packets++
			p := en.packet
			if seen[p.ID] {
				t.Fatalf("packet %d emitted twice", p.ID)
			}
			seen[p.ID] = true
			if !p.Delivered() {
				t.Fatalf("packet %d undelivered in a completed batch run", p.ID)
			}
			if p.FirstSend < p.Arrival || p.FirstSend > p.Departure {
				t.Fatalf("packet %d FirstSend %d outside [%d, %d]", p.ID, p.FirstSend, p.Arrival, p.Departure)
			}
			if p.Sends < 1 || p.Accesses() < p.Sends {
				t.Fatalf("packet %d sends/accesses = %d/%d", p.ID, p.Sends, p.Accesses())
			}
			// Departure events precede their slot's SlotEvent: the last slot
			// event seen so far must be strictly before the departure slot.
			if p.Departure <= lastSlot {
				t.Fatalf("packet %d departing at %d arrived after slot event %d", p.ID, p.Departure, lastSlot)
			}
		}
	}
	// One event per resolved slot; active-but-unaccessed slots (everyone
	// waiting out a backoff window) produce none.
	if slots != r.EngineStats.SlotsResolved {
		t.Fatalf("got %d slot events, want one per resolved slot (%d)", slots, r.EngineStats.SlotsResolved)
	}
	if slots > r.ActiveSlots {
		t.Fatalf("%d slot events exceed the %d active slots", slots, r.ActiveSlots)
	}
	if packets != n {
		t.Fatalf("got %d packet events, want %d", packets, n)
	}
	if last := lg.entries[len(lg.entries)-1]; last.slot == nil || last.slot.Backlog != 0 {
		t.Fatalf("final slot event must show an empty system, got %+v", last)
	}
}

// TestRecorderSurvivors: a truncated run emits every in-flight packet once
// at the end, in arrival order, with Departure = -1.
func TestRecorderSurvivors(t *testing.T) {
	lg := &eventLog{}
	e, err := NewEngine(Params{
		Seed:       7,
		Arrivals:   arrivals.NewBatch(64),
		NewStation: core.MustFactory(core.Default()),
		MaxSlots:   8,
		Recorder:   lg,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated {
		t.Fatal("run with 64 packets and 8 slots must truncate")
	}
	var undelivered []obs.PacketEvent
	var total int64
	for _, en := range lg.entries {
		if en.packet == nil {
			continue
		}
		total++
		if !en.packet.Delivered() {
			undelivered = append(undelivered, *en.packet)
		}
	}
	if total != 64 {
		t.Fatalf("got %d packet events, want every packet exactly once (64)", total)
	}
	if int64(len(undelivered)) != 64-r.Completed {
		t.Fatalf("%d undelivered events, want %d", len(undelivered), 64-r.Completed)
	}
	for i := 1; i < len(undelivered); i++ {
		if undelivered[i].ID <= undelivered[i-1].ID {
			t.Fatalf("survivors out of arrival order: %d after %d", undelivered[i].ID, undelivered[i-1].ID)
		}
	}
	for _, p := range undelivered {
		if p.Latency() != -1 {
			t.Fatalf("survivor %d has latency %d, want -1", p.ID, p.Latency())
		}
	}
}

// TestEngineStatsBatch checks the self-metrics on the workload where the
// values are exact: a batch injects every station before any departs, so
// nothing can be reused and the peak backlog is the batch itself.
func TestEngineStatsBatch(t *testing.T) {
	const n = 128
	e, err := NewEngine(Params{
		Seed:          2,
		Arrivals:      arrivals.NewBatch(n),
		NewStation:    core.MustFactory(core.Default()),
		ReuseStations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	es := r.EngineStats
	if es.StationsBuilt != n || es.StationsReused != 0 || es.EntriesRecycled != 0 {
		t.Fatalf("batch built/reused/recycled = %d/%d/%d, want %d/0/0",
			es.StationsBuilt, es.StationsReused, es.EntriesRecycled, n)
	}
	if es.PeakBacklog != n || es.PeakSlotTable != n {
		t.Fatalf("peak backlog/table = %d/%d, want %d/%d", es.PeakBacklog, es.PeakSlotTable, n, n)
	}
	// Resolved slots are the subset of active slots with at least one
	// channel access (active slots where everyone slept are skipped).
	if es.SlotsResolved == 0 || es.SlotsResolved > r.ActiveSlots {
		t.Fatalf("SlotsResolved %d outside (0, ActiveSlots %d]", es.SlotsResolved, r.ActiveSlots)
	}
	// Every channel access was scheduled as an event; the count includes at
	// least one event per packet.
	if es.EventsScheduled < n || es.EventsScheduled < r.Energy.Accesses.Sum {
		t.Fatalf("EventsScheduled %d too small (accesses %d)", es.EventsScheduled, r.Energy.Accesses.Sum)
	}
}

// TestEngineStatsReuse: under a long steady stream with recycling, the
// engine serves most packets from recycled state and the live footprint
// stays at the peak backlog, far below total arrivals.
func TestEngineStatsReuse(t *testing.T) {
	const n = 5000
	src, err := arrivals.NewBernoulli(0.15, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Params{
		Seed:          1,
		Arrivals:      src,
		NewStation:    core.MustFactory(core.Default()),
		ReuseStations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	es := r.EngineStats
	if es.StationsBuilt+es.StationsReused != r.Arrived {
		t.Fatalf("built %d + reused %d != arrived %d", es.StationsBuilt, es.StationsReused, r.Arrived)
	}
	if es.StationsReused == 0 || es.EntriesRecycled == 0 {
		t.Fatalf("steady stream with ReuseStations recycled nothing: %+v", es)
	}
	if es.StationsBuilt > es.PeakSlotTable {
		t.Fatalf("built %d stations but table peaked at %d", es.StationsBuilt, es.PeakSlotTable)
	}
	if es.PeakBacklog >= n/10 {
		t.Fatalf("peak backlog %d is O(arrivals); the stream should stay nearly drained", es.PeakBacklog)
	}
	if es.SlotsResolved == 0 || es.SlotsResolved > r.ActiveSlots {
		t.Fatalf("SlotsResolved %d outside (0, ActiveSlots %d]", es.SlotsResolved, r.ActiveSlots)
	}
}

// TestNilRecorderStaysAllocFree: with no recorder attached the
// steady-state run must not allocate per packet — the observability hook
// costs one branch, nothing more. Allocation count is measured directly so
// a regression fails deterministically rather than via benchmark drift.
func TestNilRecorderStaysAllocFree(t *testing.T) {
	const n = 50000
	src, err := arrivals.NewBernoulli(0.15, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Params{
		Seed:          1,
		Arrivals:      src,
		NewStation:    core.MustFactory(core.Default()),
		ReuseStations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if r.Arrived != n {
		t.Fatalf("arrived %d", r.Arrived)
	}
	// The run allocates O(peak backlog) for engine state; anything close to
	// O(packets) means a per-packet allocation crept into the hot path.
	allocs := after.Mallocs - before.Mallocs
	if allocs > n/10 {
		t.Fatalf("%d allocations for %d packets — hot path no longer allocation-free", allocs, n)
	}
	t.Logf("%d allocations for %d packets (peak backlog %d)", allocs, n, r.EngineStats.PeakBacklog)
}

// TestWindowedRecorderMemoryIsWindowBounded: an attached metrics pipeline
// (Windows -> NDJSON) on a long run must allocate O(emitted windows), not
// O(packets): the accumulator folds the stream in place and only the
// per-window serialization allocates.
func TestWindowedRecorderMemoryIsWindowBounded(t *testing.T) {
	const n = 100000
	src, err := arrivals.NewBernoulli(0.15, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewNDJSON(io.Discard)
	ws := obs.NewWindows(1024, sink.RecordWindow)
	e, err := NewEngine(Params{
		Seed:          1,
		Arrivals:      src,
		NewStation:    core.MustFactory(core.Default()),
		ReuseStations: true,
		Recorder:      ws,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if r.Arrived != n {
		t.Fatalf("arrived %d", r.Arrived)
	}
	windows := sink.Lines()
	if windows == 0 {
		t.Fatal("no windows emitted")
	}
	allocs := after.Mallocs - before.Mallocs
	// Generous constant per emitted window (json.Marshal internals), but
	// far below one allocation per packet.
	if allocs > uint64(windows)*24+1024 {
		t.Fatalf("%d allocations for %d windows over %d packets — recorder memory is not O(window)",
			allocs, windows, n)
	}
	t.Logf("%d packets, %d windows, %d allocations", n, windows, allocs)
}

// TestWindowLatencyMatchesEnergy: the windowed series and the engine's
// accumulators fold the same packet record, so on a Poisson LSB stream the
// windows' latency tallies sum exactly to Result.Energy.Latency.
func TestWindowLatencyMatchesEnergy(t *testing.T) {
	src, err := arrivals.NewPoisson(0.05, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	ws := obs.NewWindows(256, nil)
	e, err := NewEngine(Params{
		Seed:          4,
		Arrivals:      src,
		NewStation:    core.MustFactory(core.Default()),
		ReuseStations: true,
		Recorder:      ws,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Flush(); err != nil {
		t.Fatal(err)
	}
	var sum, count int64
	for _, w := range ws.Stats() {
		sum += w.Latency.Sum
		count += w.Latency.Count
	}
	if count == 0 || sum != r.Energy.Latency.Sum || count != r.Energy.Latency.Count {
		t.Fatalf("windows latency sum/count %d/%d, Result.Energy %d/%d",
			sum, count, r.Energy.Latency.Sum, r.Energy.Latency.Count)
	}
}

// BenchmarkRecorderOverhead measures the engine's per-packet cost with no
// recorder (the branch-only baseline), a bounded in-memory Ring, a
// windowed metrics pipeline, and an obs.PacketFunc sink. Observed runs
// take the batch path like unobserved ones. The nil case must report 0
// allocs/op; benchdiff guards every row against BENCH_engine.json.
func BenchmarkRecorderOverhead(b *testing.B) {
	bench := func(b *testing.B, rec obs.Recorder) {
		src, err := arrivals.NewBernoulli(0.15, int64(b.N), 42)
		if err != nil {
			b.Fatal(err)
		}
		e, err := NewEngine(Params{
			Seed:          1,
			Arrivals:      src,
			NewStation:    core.MustFactory(core.Default()),
			ReuseStations: true,
			Recorder:      rec,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("nil", func(b *testing.B) { bench(b, nil) })
	b.Run("ring", func(b *testing.B) { bench(b, obs.NewRing(1024)) })
	b.Run("windows", func(b *testing.B) {
		sink := obs.NewNDJSON(io.Discard)
		bench(b, obs.NewWindows(1024, sink.RecordWindow))
	})
	b.Run("packets", func(b *testing.B) {
		var accesses int64
		bench(b, obs.PacketFunc(func(p obs.PacketEvent) { accesses += p.Accesses() }))
	})
}
