package simref

import (
	"slices"
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/internal/jamming"
	"lowsensing/internal/protocols"
	"lowsensing/internal/sim"
	"lowsensing/obs"
	"lowsensing/prng"
)

// periodicJam jams burst consecutive slots at the start of every period
// slots, beginning at phase: a pure duty-cycled jammer whose closed-form
// CountRange the engine's skipped ranges must agree with.
type periodicJam struct{ period, burst, phase int64 }

func (p periodicJam) Jammed(slot int64) bool {
	s := slot - p.phase
	return s >= 0 && s%p.period < p.burst
}

func (p periodicJam) CountRange(from, to int64) int64 { return p.prefix(to) - p.prefix(from) }

// prefix counts the jammed slots in [0, t).
func (p periodicJam) prefix(t int64) int64 {
	s := t - p.phase
	if s <= 0 {
		return 0
	}
	return s/p.period*p.burst + min(s%p.period, p.burst)
}

// eventLog records a run's full Recorder stream, slot and packet events
// interleaved in emission order.
type eventLog struct {
	slots   []obs.SlotEvent
	packets []obs.PacketEvent
	order   []bool // true = slot event
}

func (l *eventLog) RecordSlot(ev obs.SlotEvent) {
	l.slots = append(l.slots, ev)
	l.order = append(l.order, true)
}

func (l *eventLog) RecordPacket(pe obs.PacketEvent) {
	l.packets = append(l.packets, pe)
	l.order = append(l.order, false)
}

// diff runs the same Params through the event-driven engine and the naive
// reference and asserts bit-identical results and identical Recorder event
// streams — every resolved slot and every packet record, in the same
// order. Params factories must be rebuilt per run, so diff takes a builder.
func diff(t *testing.T, name string, build func() sim.Params) {
	t.Helper()
	refLog, engLog := &eventLog{}, &eventLog{}
	pRef := build()
	pRef.Recorder = refLog
	ref, err := Run(pRef)
	if err != nil {
		t.Fatalf("%s: simref: %v", name, err)
	}
	pEng := build()
	pEng.Recorder = engLog
	e, err := sim.NewEngine(pEng)
	if err != nil {
		t.Fatalf("%s: engine: %v", name, err)
	}
	eng, err := e.Run()
	if err != nil {
		t.Fatalf("%s: engine run: %v", name, err)
	}

	if ref.Arrived != eng.Arrived || ref.Completed != eng.Completed {
		t.Fatalf("%s: arrived/completed %d/%d vs %d/%d", name, ref.Arrived, ref.Completed, eng.Arrived, eng.Completed)
	}
	if ref.Abandoned != eng.Abandoned {
		t.Fatalf("%s: abandoned %d vs %d", name, ref.Abandoned, eng.Abandoned)
	}
	if ref.Faults != eng.Faults {
		t.Fatalf("%s: fault stats %+v vs %+v", name, ref.Faults, eng.Faults)
	}
	if ref.ActiveSlots != eng.ActiveSlots {
		t.Fatalf("%s: active slots %d vs %d", name, ref.ActiveSlots, eng.ActiveSlots)
	}
	if ref.JammedSlots != eng.JammedSlots {
		t.Fatalf("%s: jammed slots %d vs %d", name, ref.JammedSlots, eng.JammedSlots)
	}
	if ref.LastSlot != eng.LastSlot {
		t.Fatalf("%s: last slot %d vs %d", name, ref.LastSlot, eng.LastSlot)
	}
	if ref.Truncated != eng.Truncated {
		t.Fatalf("%s: truncated %v vs %v", name, ref.Truncated, eng.Truncated)
	}
	if len(refLog.slots) != len(engLog.slots) || int64(len(refLog.slots)) != eng.EngineStats.SlotsResolved {
		t.Fatalf("%s: slot events %d vs %d (engine resolved %d slots)", name, len(refLog.slots), len(engLog.slots), eng.EngineStats.SlotsResolved)
	}
	for i := range refLog.slots {
		if refLog.slots[i] != engLog.slots[i] {
			t.Fatalf("%s: slot event %d: %+v vs engine %+v", name, i, refLog.slots[i], engLog.slots[i])
		}
	}
	if len(refLog.packets) != len(engLog.packets) || int64(len(refLog.packets)) != ref.Arrived {
		t.Fatalf("%s: packet events %d vs %d (arrived %d)", name, len(refLog.packets), len(engLog.packets), ref.Arrived)
	}
	for i := range refLog.packets {
		if refLog.packets[i] != engLog.packets[i] {
			t.Fatalf("%s: packet event %d: %+v vs engine %+v", name, i, refLog.packets[i], engLog.packets[i])
		}
	}
	if !slices.Equal(refLog.order, engLog.order) {
		t.Fatalf("%s: slot and packet events interleave differently", name)
	}
	// Both engines fold packets into the streaming accumulators in the same
	// order, so even the floating-point second moments must be bit-equal.
	if ref.Energy != eng.Energy {
		t.Fatalf("%s: energy accumulators differ", name)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(sim.Params{}); err == nil {
		t.Fatal("empty params accepted")
	}
	factory := core.MustFactory(core.Default())
	if _, err := Run(sim.Params{Arrivals: arrivals.NewBatch(1), NewStation: factory}); err == nil {
		t.Fatal("MaxSlots 0 accepted")
	}
	adaptive, err := jamming.NewAdaptive(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sim.Params{
		Arrivals: arrivals.NewBatch(1), NewStation: factory, MaxSlots: 10, Jammer: adaptive,
	}); err == nil {
		t.Fatal("engine-bound jammer accepted")
	}
}

func TestDifferentialLSBBatch(t *testing.T) {
	for _, n := range []int64{1, 2, 7, 32, 100} {
		for seed := uint64(1); seed <= 5; seed++ {
			n, seed := n, seed
			diff(t, "batch", func() sim.Params {
				return sim.Params{
					Seed:       seed,
					Arrivals:   arrivals.NewBatch(n),
					NewStation: core.MustFactory(core.Default()),
					MaxSlots:   1 << 16,
				}
			})
		}
	}
}

func TestDifferentialLSBWithTrace(t *testing.T) {
	diff(t, "trace", func() sim.Params {
		src, err := arrivals.NewTrace([]arrivals.TraceBatch{
			{Slot: 0, Count: 5}, {Slot: 3, Count: 2}, {Slot: 50, Count: 10}, {Slot: 400, Count: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Params{
			Seed:       9,
			Arrivals:   src,
			NewStation: core.MustFactory(core.Default()),
			MaxSlots:   1 << 16,
		}
	})
}

func TestDifferentialWithDeterministicJamming(t *testing.T) {
	diff(t, "interval-jam", func() sim.Params {
		iv, err := jamming.NewInterval(5, 60)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Params{
			Seed:       11,
			Arrivals:   arrivals.NewBatch(20),
			NewStation: core.MustFactory(core.Default()),
			Jammer:     iv,
			MaxSlots:   1 << 16,
		}
	})
	diff(t, "periodic-jam", func() sim.Params {
		return sim.Params{
			Seed:       12,
			Arrivals:   arrivals.NewBatch(16),
			NewStation: core.MustFactory(core.Default()),
			Jammer:     periodicJam{period: 13, burst: 4, phase: 2},
			MaxSlots:   1 << 16,
		}
	})
}

func TestDifferentialWithRandomJammer(t *testing.T) {
	// Random jammers consume their own streams; identical construction
	// must give identical CountRange/Jammed sequences across engines
	// because both engines issue the same calls in the same order.
	diff(t, "random-jam", func() sim.Params {
		jm, err := jamming.NewRandom(0.2, 0, 77)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Params{
			Seed:       13,
			Arrivals:   arrivals.NewBatch(24),
			NewStation: core.MustFactory(core.Default()),
			Jammer:     jm,
			MaxSlots:   1 << 16,
		}
	})
}

func TestDifferentialReactiveJammer(t *testing.T) {
	diff(t, "reactive", func() sim.Params {
		jm, err := jamming.NewReactiveTargeted(0, 8)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Params{
			Seed:       15,
			Arrivals:   arrivals.NewBatch(12),
			NewStation: core.MustFactory(core.Default()),
			Jammer:     jm,
			MaxSlots:   1 << 16,
		}
	})
}

func TestDifferentialTruncated(t *testing.T) {
	// Full jamming forces truncation; both engines must agree on the
	// truncated accounting too.
	diff(t, "truncated", func() sim.Params {
		iv, err := jamming.NewInterval(0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Params{
			Seed:       16,
			Arrivals:   arrivals.NewBatch(6),
			NewStation: core.MustFactory(core.Default()),
			Jammer:     iv,
			MaxSlots:   512,
		}
	})
}

func TestDifferentialBaselines(t *testing.T) {
	builders := map[string]func() sim.StationFactory{
		"beb": func() sim.StationFactory {
			f, err := protocols.NewBEBFactory(2, 0)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"poly": func() sim.StationFactory {
			f, err := protocols.NewPolyFactory(2, 2)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"mwu": func() sim.StationFactory {
			f, err := protocols.NewMWUFactory(protocols.DefaultMWUConfig())
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"aloha": func() sim.StationFactory {
			f, err := protocols.NewAlohaFactory(1.0 / 16)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	}
	for name, mk := range builders {
		mk := mk
		diff(t, name, func() sim.Params {
			return sim.Params{
				Seed:       21,
				Arrivals:   arrivals.NewBatch(16),
				NewStation: mk(),
				MaxSlots:   1 << 16,
			}
		})
	}
}

func TestDifferentialBernoulliArrivals(t *testing.T) {
	diff(t, "bernoulli", func() sim.Params {
		src, err := arrivals.NewBernoulli(0.05, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Params{
			Seed:       31,
			Arrivals:   src,
			NewStation: core.MustFactory(core.Default()),
			MaxSlots:   1 << 16,
		}
	})
}

// chaos station for randomized differential sweeps.
type chaosStation struct{}

func (chaosStation) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	return from + int64(rng.Intn(4)), rng.Bernoulli(0.4)
}
func (chaosStation) Observe(sim.Observation) {}

func TestDifferentialChaosSweep(t *testing.T) {
	for seed := uint64(100); seed < 140; seed++ {
		seed := seed
		diff(t, "chaos", func() sim.Params {
			return sim.Params{
				Seed:       seed,
				Arrivals:   arrivals.NewBatch(int64(seed%17) + 2),
				NewStation: func(int64, *prng.Source) sim.Station { return chaosStation{} },
				MaxSlots:   2048,
			}
		})
	}
}

// TestDifferentialStationRecycling targets the engine's zero-allocation
// station lifecycle: under dynamic arrivals, departures interleave with
// later arrivals, so the engine recycles slot-table entries — reinitializing
// the embedded rng in place and Reset-ing pooled ReusableStations — while
// the reference engine constructs every station fresh through the factory.
// Bit-identical results across every built-in protocol prove each Reset is
// indistinguishable from fresh construction.
func TestDifferentialStationRecycling(t *testing.T) {
	builders := map[string]func() sim.StationFactory{
		"lsb": func() sim.StationFactory { return core.MustFactory(core.Default()) },
		"beb": func() sim.StationFactory {
			f, err := protocols.NewBEBFactory(2, 0)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"poly": func() sim.StationFactory {
			f, err := protocols.NewPolyFactory(2, 2)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"aloha": func() sim.StationFactory {
			f, err := protocols.NewAlohaFactory(1.0 / 8)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"mwu": func() sim.StationFactory {
			f, err := protocols.NewMWUFactory(protocols.DefaultMWUConfig())
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"fixed": func() sim.StationFactory {
			f, err := protocols.NewFixedFactory(1.0/8, 1.0/8)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"sawtooth": protocols.NewSawtoothFactory,
		"genie":    protocols.NewGenieAlohaFactory,
	}
	for name, mk := range builders {
		name, mk := name, mk
		for seed := uint64(1); seed <= 3; seed++ {
			seed := seed
			diff(t, "recycle/"+name, func() sim.Params {
				// A thin arrival stream keeps the backlog small, so most
				// arrivals land on recycled entries. ReuseStations enables
				// recycling in the engine; the reference engine has no
				// recycling to enable.
				src, err := arrivals.NewBernoulli(0.04, 60, seed)
				if err != nil {
					t.Fatal(err)
				}
				return sim.Params{
					Seed:          seed,
					Arrivals:      src,
					NewStation:    mk(),
					ReuseStations: true,
					MaxSlots:      1 << 16,
				}
			})
		}
	}
}
