package sim

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"lowsensing/prng"
)

// chaosStation takes random actions: random small gaps, random send
// decisions. It exercises the engine against arbitrary (but contract-
// respecting) station behaviour.
type chaosStation struct{}

func (chaosStation) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	return from + int64(rng.Intn(5)), rng.Bernoulli(0.5)
}

func (chaosStation) Observe(Observation) {}

// chaosJammer jams pseudo-randomly by slot parity buckets; deterministic in
// the slot as required.
type chaosJammer struct{ seed uint64 }

func (c chaosJammer) Jammed(slot int64) bool {
	return prng.Mix64(c.seed^uint64(slot))%4 == 0
}

func (c chaosJammer) CountRange(from, to int64) int64 {
	var n int64
	for s := from; s < to; s++ {
		if c.Jammed(s) {
			n++
		}
	}
	return n
}

func TestEngineInvariantsUnderChaos(t *testing.T) {
	f := func(seed uint64, nRaw uint8, burstsRaw uint8, jam bool) bool {
		n := int64(nRaw%50) + 1
		bursts := int64(burstsRaw%4) + 1
		batches := make([][2]int64, 0, bursts)
		var slot int64
		for b := int64(0); b < bursts; b++ {
			batches = append(batches, [2]int64{slot, n})
			slot += int64(prng.Mix64(seed+uint64(b)) % 200)
		}
		var jammer Jammer
		if jam {
			jammer = chaosJammer{seed: seed}
		}
		pt := &packetTable{}
		e, err := NewEngine(Params{
			Seed:       seed,
			Arrivals:   &traceSource{batches: batches},
			NewStation: func(int64, *prng.Source) Station { return chaosStation{} },
			Jammer:     jammer,
			MaxSlots:   3000,
			Recorder:   pt,
		})
		if err != nil {
			t.Logf("engine: %v", err)
			return false
		}
		r, err := e.Run()
		if err != nil {
			t.Logf("run: %v", err)
			return false
		}

		// Conservation and ordering invariants.
		if r.Arrived != n*bursts {
			t.Logf("arrived %d != %d", r.Arrived, n*bursts)
			return false
		}
		if r.Completed > r.Arrived {
			t.Log("completed > arrived")
			return false
		}
		if r.ActiveSlots < r.Completed {
			t.Log("more successes than active slots")
			return false
		}
		if r.JammedSlots > r.ActiveSlots {
			t.Log("more jams than active slots")
			return false
		}
		if r.JammedSlots < 0 || r.ActiveSlots < 0 {
			t.Log("negative accounting")
			return false
		}
		undelivered := int64(0)
		var sends int64
		for _, p := range *pt {
			if p.Departure >= 0 && p.Departure < p.Arrival {
				t.Log("departed before arrival")
				return false
			}
			if p.Departure < 0 {
				undelivered++
				if !r.Truncated {
					t.Log("undelivered packet in non-truncated run")
					return false
				}
			} else if p.Sends < 1 {
				t.Log("delivered packet never sent")
				return false
			}
			sends += p.Sends
		}
		if undelivered != r.Arrived-r.Completed {
			t.Log("undelivered count mismatch")
			return false
		}
		if sends < r.Completed {
			t.Log("fewer sends than successes")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterminismProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int64(nRaw%30) + 2
		run := func() (Result, packetTable) {
			pt := &packetTable{}
			e, err := NewEngine(Params{
				Seed:       seed,
				Arrivals:   &batchSource{count: n},
				NewStation: func(int64, *prng.Source) Station { return chaosStation{} },
				Jammer:     chaosJammer{seed: seed},
				MaxSlots:   2000,
				Recorder:   pt,
			})
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			return r, *pt
		}
		a, pa := run()
		b, pb := run()
		if a.ActiveSlots != b.ActiveSlots || a.Completed != b.Completed ||
			a.JammedSlots != b.JammedSlots || a.LastSlot != b.LastSlot {
			return false
		}
		return slices.Equal(pa, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// pastScheduler violates the Station contract by scheduling in the past.
type pastScheduler struct{ calls int }

func (p *pastScheduler) ScheduleNext(from int64, _ *prng.Source) (int64, bool) {
	p.calls++
	if p.calls == 1 {
		return from + 1, true // valid initial schedule
	}
	return from - 2, true // contract violation on reschedule
}

func (p *pastScheduler) Observe(Observation) {}

func TestEnginePanicsOnPastReschedule(t *testing.T) {
	// Two stations collide so a reschedule happens; the second schedule
	// goes backwards and must panic (a loud failure beats silent time
	// travel).
	e, err := NewEngine(Params{
		Arrivals:   &batchSource{count: 2},
		NewStation: func(int64, *prng.Source) Station { return &pastScheduler{} },
		MaxSlots:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on past reschedule")
		}
	}()
	_, _ = e.Run()
}

// behindStation schedules at from and sends, except that its call-th
// ScheduleNext call (counting from 1; 0 = never) returns a slot before from.
type behindStation struct{ call, calls int }

func (s *behindStation) ScheduleNext(from int64, _ *prng.Source) (int64, bool) {
	s.calls++
	if s.calls == s.call {
		return from - 1, true
	}
	return from, true
}

func (s *behindStation) Observe(Observation) {}

// crashOne crashes station id, down slots, every time it is consulted, and
// leaves every outcome and every other station alone.
type crashOne struct{ id, down int64 }

func (c crashOne) Corrupt(_, _ int64, o Outcome, _ *prng.Source) Outcome { return o }

func (c crashOne) Crash(id, _ int64, _ *prng.Source) (int64, bool) { return c.down, id == c.id }

// TestScheduleBehindPanics checks the engine's one scheduling invariant at
// each point it schedules: a station whose ScheduleNext returns a slot
// before the one it was asked from panics, naming the station. Stations 0
// and 1 arrive at slot 5 and collide there; station 1 misbehaves at
// injection, on the reschedule after that collision, or on the restart
// after a crash that keeps it down 3 slots.
func TestScheduleBehindPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		// The ScheduleNext call station 1 goes behind on, when first
		// built and when rebuilt after a crash (0 = never).
		first, rebuilt int
		faults         FaultModel
		want           string
	}{
		{"injection", 1, 0, nil, "station 1 scheduled slot 4 before current slot 5"},
		{"reschedule", 2, 0, nil, "station 1 scheduled slot 5 before current slot 6"},
		{"crash restart", 0, 1, crashOne{id: 1, down: 3}, "station 1 scheduled slot 8 before current slot 9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			built := 0
			e, err := NewEngine(Params{
				Arrivals: &batchSource{slot: 5, count: 2},
				NewStation: func(id int64, _ *prng.Source) Station {
					built++
					switch {
					case built > 2:
						return &behindStation{call: tc.rebuilt}
					case id == 1:
						return &behindStation{call: tc.first}
					}
					return &behindStation{}
				},
				Faults:   tc.faults,
				MaxSlots: 100,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want one containing %q", msg, tc.want)
				}
			}()
			_, _ = e.Run()
		})
	}
}

// backwardsArrivals violates the ArrivalSource contract.
type backwardsArrivals struct{ calls int }

func (b *backwardsArrivals) Next() (int64, int64, bool) {
	b.calls++
	switch b.calls {
	case 1:
		return 10, 1, true
	case 2:
		return 3, 1, true // goes backwards
	default:
		return 0, 0, false
	}
}

func TestEnginePanicsOnBackwardsArrivals(t *testing.T) {
	e, err := NewEngine(Params{
		Arrivals:   &backwardsArrivals{},
		NewStation: scriptedFactory(map[int64][]scriptStep{0: {{0, true}}, 1: {{0, true}}}, nil),
		MaxSlots:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards arrivals")
		}
	}()
	_, _ = e.Run()
}

func TestZeroCountBatchIsIgnored(t *testing.T) {
	// A source may emit a zero-count batch; the engine must not create a
	// phantom busy period for it.
	e, err := NewEngine(Params{
		Arrivals: &traceSource{batches: [][2]int64{{5, 0}, {10, 1}}},
		NewStation: scriptedFactory(map[int64][]scriptStep{
			0: {{0, true}},
		}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Arrived != 1 || r.Completed != 1 {
		t.Fatalf("result = %+v", r)
	}
	if r.ActiveSlots != 1 {
		t.Fatalf("ActiveSlots = %d, want 1 (zero batch at slot 5 must not open a busy period)", r.ActiveSlots)
	}
}
