package sim

import (
	"testing"
	"unsafe"

	"lowsensing/obs"
	"lowsensing/prng"
)

// scriptStation follows a fixed script of (gap, send) pairs: at each
// scheduling call it consumes the next entry; after the script is exhausted
// it repeats the last entry. It records every observation.
type scriptStation struct {
	script []scriptStep
	pos    int
	obs    []Observation
}

type scriptStep struct {
	gap  int64 // slots to wait from `from` (0 = act at `from`)
	send bool
}

func (s *scriptStation) ScheduleNext(from int64, _ *prng.Source) (int64, bool) {
	step := s.script[len(s.script)-1]
	if s.pos < len(s.script) {
		step = s.script[s.pos]
		s.pos++
	}
	return from + step.gap, step.send
}

func (s *scriptStation) Observe(o Observation) { s.obs = append(s.obs, o) }

// batchSource is a minimal one-shot arrival source for tests.
type batchSource struct {
	slot, count int64
	done        bool
}

func (b *batchSource) Next() (int64, int64, bool) {
	if b.done {
		return 0, 0, false
	}
	b.done = true
	return b.slot, b.count, true
}

// traceSource replays fixed (slot,count) pairs.
type traceSource struct {
	batches [][2]int64
	pos     int
}

func (t *traceSource) Next() (int64, int64, bool) {
	if t.pos >= len(t.batches) {
		return 0, 0, false
	}
	b := t.batches[t.pos]
	t.pos++
	return b[0], b[1], true
}

func scriptedFactory(scripts map[int64][]scriptStep, record map[int64]*scriptStation) StationFactory {
	return func(id int64, _ *prng.Source) Station {
		st := &scriptStation{script: scripts[id]}
		if record != nil {
			record[id] = st
		}
		return st
	}
}

func TestNewEngineValidation(t *testing.T) {
	factory := func(int64, *prng.Source) Station { return &scriptStation{script: []scriptStep{{0, true}}} }
	if _, err := NewEngine(Params{NewStation: factory}); err == nil {
		t.Fatal("missing Arrivals not rejected")
	}
	if _, err := NewEngine(Params{Arrivals: &batchSource{count: 1}}); err == nil {
		t.Fatal("missing NewStation not rejected")
	}
	if _, err := NewEngine(Params{Arrivals: &batchSource{count: 1}, NewStation: factory, MaxSlots: -1}); err == nil {
		t.Fatal("negative MaxSlots not rejected")
	}
}

// TestStationStateFitsTwoCacheLines pins the slot-table entry's size: every
// channel access reads its packet's entry, so each byte past two 64-byte
// cache lines costs a third line per access on large backlogs.
func TestStationStateFitsTwoCacheLines(t *testing.T) {
	if got := unsafe.Sizeof(stationState{}); got > 128 {
		t.Fatalf("stationState is %d bytes, want <= 128", got)
	}
}

func TestRunTwiceFails(t *testing.T) {
	e, err := NewEngine(Params{
		Arrivals:   &batchSource{count: 1},
		NewStation: scriptedFactory(map[int64][]scriptStep{0: {{0, true}}}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestSinglePacketImmediateSuccess(t *testing.T) {
	rec := map[int64]*scriptStation{}
	pt := &packetTable{}
	e, err := NewEngine(Params{
		Arrivals:   &batchSource{slot: 5, count: 1},
		NewStation: scriptedFactory(map[int64][]scriptStep{0: {{0, true}}}, rec),
		Recorder:   pt,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Arrived != 1 || r.Completed != 1 {
		t.Fatalf("arrived/completed = %d/%d", r.Arrived, r.Completed)
	}
	if r.ActiveSlots != 1 {
		t.Fatalf("ActiveSlots = %d, want 1", r.ActiveSlots)
	}
	if r.Throughput() != 1 || r.ImplicitThroughput() != 1 {
		t.Fatalf("throughput = %v / %v", r.Throughput(), r.ImplicitThroughput())
	}
	p := (*pt)[0]
	if p.Arrival != 5 || p.Departure != 5 || p.Sends != 1 || p.Listens != 0 {
		t.Fatalf("packet stats = %+v", p)
	}
	if p.Latency() != 1 {
		t.Fatalf("latency = %d", p.Latency())
	}
	obs := rec[0].obs
	if len(obs) != 1 || obs[0].Outcome != OutcomeSuccess || !obs[0].Sent || !obs[0].Succeeded {
		t.Fatalf("observations = %+v", obs)
	}
}

func TestCollisionThenResolution(t *testing.T) {
	// Both stations send at slot 0 (collision); station 0 retries at slot 1,
	// station 1 at slot 2. All three slots are active.
	rec := map[int64]*scriptStation{}
	scripts := map[int64][]scriptStep{
		0: {{0, true}, {0, true}},
		1: {{0, true}, {1, true}},
	}
	pt := &packetTable{}
	e, err := NewEngine(Params{
		Arrivals:   &batchSource{count: 2},
		NewStation: scriptedFactory(scripts, rec),
		Recorder:   pt,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 2 {
		t.Fatalf("completed = %d", r.Completed)
	}
	if r.ActiveSlots != 3 {
		t.Fatalf("ActiveSlots = %d, want 3", r.ActiveSlots)
	}
	if got := rec[0].obs[0].Outcome; got != OutcomeNoisy {
		t.Fatalf("first observation = %v, want noisy", got)
	}
	if rec[0].obs[0].Succeeded {
		t.Fatal("collided send marked succeeded")
	}
	if rec[0].obs[1].Outcome != OutcomeSuccess || !rec[0].obs[1].Succeeded {
		t.Fatalf("retry observation = %+v", rec[0].obs[1])
	}
	if (*pt)[0].Sends != 2 || (*pt)[1].Sends != 2 {
		t.Fatalf("send counts = %d,%d", (*pt)[0].Sends, (*pt)[1].Sends)
	}
}

func TestListenerHearsOthersSuccessAndSilence(t *testing.T) {
	// Station 0 listens at slots 0 and 1 and then sends at slot 2.
	// Station 1 sends at slot 0 and departs. Slot 1 is empty.
	rec := map[int64]*scriptStation{}
	scripts := map[int64][]scriptStep{
		0: {{0, false}, {0, false}, {0, true}},
		1: {{0, true}},
	}
	pt := &packetTable{}
	e, err := NewEngine(Params{
		Arrivals:   &batchSource{count: 2},
		NewStation: scriptedFactory(scripts, rec),
		Recorder:   pt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	obs := rec[0].obs
	if len(obs) != 3 {
		t.Fatalf("observations = %+v", obs)
	}
	if obs[0].Outcome != OutcomeSuccess || obs[0].Sent || obs[0].Succeeded {
		t.Fatalf("slot 0 obs = %+v", obs[0])
	}
	if obs[1].Outcome != OutcomeEmpty {
		t.Fatalf("slot 1 obs = %+v", obs[1])
	}
	if obs[2].Outcome != OutcomeSuccess || !obs[2].Succeeded {
		t.Fatalf("slot 2 obs = %+v", obs[2])
	}
	if (*pt)[0].Listens != 2 || (*pt)[0].Sends != 1 {
		t.Fatalf("packet 0 energy = %+v", (*pt)[0])
	}
	if (*pt)[0].Accesses() != 3 {
		t.Fatalf("accesses = %d", (*pt)[0].Accesses())
	}
}

func TestActiveSlotsSpanGaps(t *testing.T) {
	// One packet arrives at slot 0 but only acts (and succeeds) at slot 9:
	// slots 0..9 are all active even though 0..8 are unresolved.
	e, err := NewEngine(Params{
		Arrivals:   &batchSource{count: 1},
		NewStation: scriptedFactory(map[int64][]scriptStep{0: {{9, true}}}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.ActiveSlots != 10 {
		t.Fatalf("ActiveSlots = %d, want 10", r.ActiveSlots)
	}
	if r.LastSlot != 9 {
		t.Fatalf("LastSlot = %d", r.LastSlot)
	}
}

func TestInactiveGapsNotCounted(t *testing.T) {
	// Busy period 1: slot 0 (immediate success). Busy period 2: slots
	// 100..101 (arrive at 100, succeed at 101). Total active = 3.
	scripts := map[int64][]scriptStep{
		0: {{0, true}},
		1: {{1, true}},
	}
	e, err := NewEngine(Params{
		Arrivals:   &traceSource{batches: [][2]int64{{0, 1}, {100, 1}}},
		NewStation: scriptedFactory(scripts, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.ActiveSlots != 3 {
		t.Fatalf("ActiveSlots = %d, want 3", r.ActiveSlots)
	}
	if r.Completed != 2 {
		t.Fatalf("completed = %d", r.Completed)
	}
}

// alwaysJam jams every slot.
type alwaysJam struct{}

func (alwaysJam) Jammed(int64) bool               { return true }
func (alwaysJam) CountRange(from, to int64) int64 { return to - from }

func TestJammedSlotIsNoisyEvenWhenEmpty(t *testing.T) {
	// Station listens at slot 0 under jamming: hears noisy, not empty.
	rec := map[int64]*scriptStation{}
	scripts := map[int64][]scriptStep{0: {{0, false}, {0, true}}}
	e, err := NewEngine(Params{
		Arrivals:   &batchSource{count: 1},
		NewStation: scriptedFactory(scripts, rec),
		Jammer:     jamFirstSlot{},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rec[0].obs[0].Outcome != OutcomeNoisy {
		t.Fatalf("jammed empty slot observed as %v", rec[0].obs[0].Outcome)
	}
	if r.JammedSlots != 1 {
		t.Fatalf("JammedSlots = %d", r.JammedSlots)
	}
	if r.Completed != 1 {
		t.Fatalf("completed = %d", r.Completed)
	}
}

// jamFirstSlot jams only slot 0.
type jamFirstSlot struct{}

func (jamFirstSlot) Jammed(slot int64) bool { return slot == 0 }
func (jamFirstSlot) CountRange(from, to int64) int64 {
	if from <= 0 && to > 0 {
		return 1
	}
	return 0
}

func TestJammedSendDoesNotSucceed(t *testing.T) {
	rec := map[int64]*scriptStation{}
	scripts := map[int64][]scriptStep{0: {{0, true}, {0, true}}}
	pt := &packetTable{}
	e, err := NewEngine(Params{
		Arrivals:   &batchSource{count: 1},
		NewStation: scriptedFactory(scripts, rec),
		Jammer:     jamFirstSlot{},
		Recorder:   pt,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rec[0].obs[0].Succeeded || rec[0].obs[0].Outcome != OutcomeNoisy {
		t.Fatalf("jammed send observation = %+v", rec[0].obs[0])
	}
	if (*pt)[0].Departure != 1 {
		t.Fatalf("departure = %d, want 1", (*pt)[0].Departure)
	}
	// Throughput counts jammed slots as non-wasted: (T+J)/S = (1+1)/2.
	if got := r.Throughput(); got != 1 {
		t.Fatalf("throughput = %v, want 1", got)
	}
}

func TestSkippedRangeJamAccounting(t *testing.T) {
	// Packet arrives at 0 and acts only at slot 9 under full jamming, then
	// schedules slot 90 — past MaxSlots, so the run truncates mid-busy with
	// the last access well before the cap. The open busy period extends
	// through MaxSlots: slots 10..50 had a live packet even though nothing
	// accessed the channel there, so they are active, and their jams are
	// unobserved-range jams exactly like any other skipped stretch. (A
	// regression test: the tail (last access, MaxSlots] used to be dropped
	// from both totals.)
	pt := &packetTable{}
	e, err := NewEngine(Params{
		Arrivals:   &batchSource{count: 1},
		NewStation: scriptedFactory(map[int64][]scriptStep{0: {{9, true}, {90, true}}}, nil),
		Jammer:     alwaysJam{},
		MaxSlots:   50,
		Recorder:   pt,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated {
		t.Fatal("run not truncated")
	}
	if r.Completed != 0 {
		t.Fatalf("completed = %d", r.Completed)
	}
	// Active and jammed slots both cover 0..50 (busy start through the
	// MaxSlots cap), not just 0..9 (the last resolved slot).
	if r.ActiveSlots != 51 || r.JammedSlots != 51 {
		t.Fatalf("active/jammed = %d/%d, want 51/51", r.ActiveSlots, r.JammedSlots)
	}
	if r.LastSlot != 9 {
		t.Fatalf("LastSlot = %d, want 9 (the last slot the engine worked)", r.LastSlot)
	}
	if (*pt)[0].Departure != -1 || (*pt)[0].Latency() != -1 {
		t.Fatalf("stuck packet stats = %+v", (*pt)[0])
	}
}

func TestMaxSlotsTruncation(t *testing.T) {
	// Two stations collide forever.
	scripts := map[int64][]scriptStep{
		0: {{0, true}},
		1: {{0, true}},
	}
	e, err := NewEngine(Params{
		Arrivals:   &batchSource{count: 2},
		NewStation: scriptedFactory(scripts, nil),
		MaxSlots:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Truncated || r.Completed != 0 {
		t.Fatalf("result = %+v", r)
	}
	if r.ActiveSlots != 101 { // slots 0..100 inclusive
		t.Fatalf("ActiveSlots = %d", r.ActiveSlots)
	}
}

// reactiveEcho jams whenever station 0 sends.
type reactiveEcho struct{ jams int64 }

func (r *reactiveEcho) Jammed(int64) bool             { return false }
func (r *reactiveEcho) CountRange(int64, int64) int64 { return 0 }
func (r *reactiveEcho) JammedReactive(_ int64, senders []int64) bool {
	for _, s := range senders {
		if s == 0 {
			r.jams++
			return true
		}
	}
	return false
}

func TestReactiveJammerSeesSenders(t *testing.T) {
	// Station 0 tries to send at slots 0,1,2 and is reactively jammed each
	// time; station 1 listens at 0,1,2 then sends at 3 and succeeds.
	scripts := map[int64][]scriptStep{
		0: {{0, true}, {0, true}, {0, true}, {10, false}},
		1: {{0, false}, {0, false}, {0, false}, {0, true}},
	}
	jam := &reactiveEcho{}
	e, err := NewEngine(Params{
		Arrivals:   &batchSource{count: 2},
		NewStation: scriptedFactory(scripts, nil),
		Jammer:     jam,
		MaxSlots:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if jam.jams != 3 {
		t.Fatalf("reactive jams = %d, want 3", jam.jams)
	}
	if r.Completed != 1 {
		t.Fatalf("completed = %d", r.Completed)
	}
	if r.JammedSlots != 3 {
		t.Fatalf("JammedSlots = %d", r.JammedSlots)
	}
}

// slotHook is a bound test recorder: fn runs after every resolved slot
// with the engine it was bound to.
type slotHook struct {
	e  *Engine
	fn func(e *Engine, ev obs.SlotEvent)
}

func (h *slotHook) Bind(e *Engine)               { h.e = e }
func (h *slotHook) RecordSlot(ev obs.SlotEvent)  { h.fn(h.e, ev) }
func (h *slotHook) RecordPacket(obs.PacketEvent) {}

// runHooked runs p with fn attached as a bound slot recorder.
func runHooked(t *testing.T, p Params, fn func(e *Engine, ev obs.SlotEvent)) Result {
	t.Helper()
	h := &slotHook{fn: fn}
	p.Recorder = h
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	h.Bind(e)
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBoundRecorderReadsEngine(t *testing.T) {
	recorded := 0
	var backlogSeen int64
	runHooked(t, Params{
		Arrivals: &batchSource{count: 2},
		NewStation: scriptedFactory(map[int64][]scriptStep{
			0: {{0, true}},
			1: {{1, true}},
		}, nil),
	}, func(e *Engine, ev obs.SlotEvent) {
		recorded++
		if b := e.Backlog(); b > backlogSeen {
			backlogSeen = b
		}
		if e.CurrentSlot() != ev.Slot || e.LastSlotEvent() != ev {
			t.Errorf("engine at slot %d (%+v), recorded %+v", e.CurrentSlot(), e.LastSlotEvent(), ev)
		}
	})
	if recorded != 2 {
		t.Fatalf("recorder called %d times, want 2", recorded)
	}
	if backlogSeen != 1 {
		// Backlog is observed after slot resolution: 1 after slot 0.
		t.Fatalf("max backlog seen = %d", backlogSeen)
	}
}

// windowedStation exposes a fixed window.
type windowedStation struct {
	scriptStation
	w float64
}

func (w *windowedStation) Window() float64 { return w.w }

func TestVisitActiveWindows(t *testing.T) {
	var sum float64
	runHooked(t, Params{
		Arrivals: &batchSource{count: 3},
		NewStation: func(id int64, _ *prng.Source) Station {
			return &windowedStation{
				scriptStation: scriptStation{script: []scriptStep{{id, true}}},
				w:             float64(10 * (id + 1)),
			}
		},
	}, func(eng *Engine, ev obs.SlotEvent) {
		if ev.Slot == 0 {
			sum = 0
			eng.VisitActiveWindows(func(w float64) { sum += w })
		}
	})
	// After slot 0, station 0 departed; stations 1 (w=20) and 2 (w=30)
	// remain active.
	if sum != 50 {
		t.Fatalf("window sum = %v, want 50", sum)
	}
}

func TestImplicitThroughputNowAndAccessors(t *testing.T) {
	var seen []float64
	r := runHooked(t, Params{
		Arrivals: &batchSource{count: 4},
		NewStation: scriptedFactory(map[int64][]scriptStep{
			0: {{0, true}},
			1: {{1, true}},
			2: {{2, true}},
			3: {{3, true}},
		}, nil),
	}, func(e *Engine, ev obs.SlotEvent) {
		slot := ev.Slot
		seen = append(seen, e.ImplicitThroughputNow())
		if e.Arrived() != 4 {
			t.Errorf("Arrived = %d", e.Arrived())
		}
		if e.JammedSoFar() != 0 {
			t.Errorf("JammedSoFar = %d", e.JammedSoFar())
		}
		if e.Completed() != slot+1 {
			t.Errorf("Completed = %d at slot %d", e.Completed(), slot)
		}
		if e.ActiveSlotsSoFar() != slot+1 {
			t.Errorf("ActiveSlotsSoFar = %d at slot %d", e.ActiveSlotsSoFar(), slot)
		}
	})
	// (N+J)/S = 4/S_t at each processed slot: 4, 2, 4/3, 1.
	want := []float64{4, 2, 4.0 / 3, 1}
	if len(seen) != len(want) {
		t.Fatalf("samples = %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("implicit throughput at sample %d = %v, want %v", i, seen[i], want[i])
		}
	}
	if r.ImplicitThroughput() != 1 {
		t.Fatalf("final implicit = %v", r.ImplicitThroughput())
	}
}

func TestEmptyResultHelpers(t *testing.T) {
	var r Result
	if r.Throughput() != 1 || r.ImplicitThroughput() != 1 {
		t.Fatal("empty-run throughput should be 1")
	}
	if r.MeanAccesses() != 0 || r.MaxAccesses() != 0 {
		t.Fatal("empty-run accesses should be 0")
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{
		OutcomeEmpty:   "empty",
		OutcomeSuccess: "success",
		OutcomeNoisy:   "noisy",
		Outcome(0):     "unknown",
	}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Fatalf("Outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
}

func TestNoJammer(t *testing.T) {
	var j NoJammer
	if j.Jammed(5) || j.CountRange(0, 100) != 0 {
		t.Fatal("NoJammer jammed something")
	}
}

// TestEnergyStatsMerge: merging per-run accumulators must equal feeding
// every packet through one accumulator — the sweep-aggregation contract.
func TestEnergyStatsMerge(t *testing.T) {
	packets := []PacketStats{
		{ID: 0, Arrival: 0, Departure: 9, Sends: 3, Listens: 2},
		{ID: 1, Arrival: 0, Departure: -1, Sends: 7, Listens: 0},
		{ID: 2, Arrival: 4, Departure: 40, Sends: 1, Listens: 9},
		{ID: 3, Arrival: 5, Departure: 5, Sends: 1, Listens: 0},
	}
	var whole, a, b EnergyStats
	for i, p := range packets {
		whole.AddPacket(p)
		if i < 2 {
			a.AddPacket(p)
		} else {
			b.AddPacket(p)
		}
	}
	a.Merge(&b)
	if a != whole {
		t.Fatalf("merged EnergyStats differ:\n%+v\nvs\n%+v", a, whole)
	}
	if a.Undelivered != 1 || a.Packets() != 4 {
		t.Fatalf("merged undelivered=%d packets=%d", a.Undelivered, a.Packets())
	}
}
