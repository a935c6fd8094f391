package sim

import (
	"reflect"
	"testing"

	"lowsensing/internal/core"
	"lowsensing/prng"
)

// hashJam is a pure (stateless) random-looking jammer: whether a slot is
// jammed is a function of the slot alone, so Run and the stepped API see
// identical jamming whatever their query pattern.
type hashJam struct{ salt uint64 }

func (h hashJam) Jammed(slot int64) bool {
	return prng.Mix64(h.salt^uint64(slot))%10 == 0
}

func (h hashJam) CountRange(from, to int64) int64 {
	var n int64
	for s := from; s < to; s++ {
		if h.Jammed(s) {
			n++
		}
	}
	return n
}

// stepTrace is the arrival schedule the stepped-API differential replays:
// bursts, singletons, quiet stretches, and a same-slot follow-up.
var stepTrace = [][2]int64{
	{0, 8}, {3, 1}, {17, 4}, {64, 16}, {65, 2}, {400, 1}, {1024, 32},
}

// stepParams builds engine params over the real LSB station factory with
// random jamming, so the differential exercises contention, backoff, and
// jam accounting — not a scripted toy.
func stepParams(t *testing.T, arr ArrivalSource) Params {
	t.Helper()
	factory, err := core.NewFactory(core.Default())
	if err != nil {
		t.Fatal(err)
	}
	return Params{
		Seed:       42,
		Arrivals:   arr,
		NewStation: factory,
		Jammer:     hashJam{salt: 99},
		MaxSlots:   1 << 20,
	}
}

// scrubWheelStats zeroes the wheel-mechanics counters. Cutting a run into
// epochs moves the wheel cursor differently (StepTo walks it to each
// limit), so cascade/overflow counts are execution details the stepped
// contract does not promise; everything else must be bit-equal.
func scrubWheelStats(r *Result) {
	r.EngineStats.WheelCascades = 0
	r.EngineStats.HeapOverflows = 0
}

// stepRun drives an engine through the stepped API over stepTrace,
// injecting perPacket (one InjectAt per packet) or per batch.
func stepRun(t *testing.T, perPacket bool) Result {
	t.Helper()
	eng, err := NewEngine(stepParams(t, &traceSource{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stepTrace {
		if err := eng.StepTo(b[0]); err != nil {
			t.Fatal(err)
		}
		if perPacket {
			for i := int64(0); i < b[1]; i++ {
				if err := eng.InjectAt(b[0], 1); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := eng.InjectAt(b[0], b[1]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := eng.FinishRun()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSteppedMatchesRun: driving the engine with StepTo/InjectAt/FinishRun
// over an arrival schedule is bit-equal to Run over the same schedule as a
// trace source — per-packet or per-batch injection — modulo the
// wheel-mechanics counters.
func TestSteppedMatchesRun(t *testing.T) {
	eng, err := NewEngine(stepParams(t, &traceSource{batches: stepTrace}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	scrubWheelStats(&want)
	if want.Completed != want.Arrived || want.Arrived != 64 {
		t.Fatalf("reference run did not deliver everything: %+v", want)
	}
	for _, perPacket := range []bool{false, true} {
		got := stepRun(t, perPacket)
		scrubWheelStats(&got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stepped (perPacket=%v) differs from Run:\n got %+v\nwant %+v",
				perPacket, got, want)
		}
	}
}

// TestSteppedExtraStepsHarmless: StepTo calls at slots where nothing
// arrives (and repeated or backward-bounded calls, which are no-ops) leave
// the packet-level outcome unchanged.
func TestSteppedExtraStepsHarmless(t *testing.T) {
	want := stepRun(t, false)
	eng, err := NewEngine(stepParams(t, &traceSource{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stepTrace {
		// Approach each arrival slot in stutter steps, including a no-op
		// repeat of an already-reached limit.
		if b[0] > 1 {
			if err := eng.StepTo(b[0] - 1); err != nil {
				t.Fatal(err)
			}
			if err := eng.StepTo(b[0] - 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.StepTo(b[0]); err != nil {
			t.Fatal(err)
		}
		if err := eng.InjectAt(b[0], b[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.StepTo(2000); err != nil {
		t.Fatal(err)
	}
	got, err := eng.FinishRun()
	if err != nil {
		t.Fatal(err)
	}
	if got.Arrived != want.Arrived || got.Completed != want.Completed ||
		got.ActiveSlots != want.ActiveSlots || got.JammedSlots != want.JammedSlots ||
		got.LastSlot != want.LastSlot || got.Energy != want.Energy {
		t.Fatalf("extra steps changed the outcome:\n got %+v\nwant %+v", got, want)
	}
}

// TestSteppedAPIMisuse: the stepped API rejects mixing with Run, injection
// behind the step floor or past MaxSlots, non-positive counts, and any
// call after FinishRun.
func TestSteppedAPIMisuse(t *testing.T) {
	fresh := func() *Engine {
		eng, err := NewEngine(stepParams(t, &traceSource{}))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	eng := fresh()
	if err := eng.StepTo(10); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("Run accepted after StepTo")
	}
	if err := eng.InjectAt(5, 1); err == nil {
		t.Fatal("InjectAt accepted behind the step floor")
	}
	if err := eng.InjectAt(12, 0); err == nil {
		t.Fatal("InjectAt accepted count 0")
	}
	if err := eng.InjectAt(12, -3); err == nil {
		t.Fatal("InjectAt accepted a negative count")
	}
	if err := eng.InjectAt(1<<21, 1); err == nil {
		t.Fatal("InjectAt accepted a slot past MaxSlots")
	}
	if _, err := eng.FinishRun(); err != nil {
		t.Fatal(err)
	}
	if err := eng.StepTo(100); err == nil {
		t.Fatal("StepTo accepted after FinishRun")
	}
	if err := eng.InjectAt(100, 1); err == nil {
		t.Fatal("InjectAt accepted after FinishRun")
	}
	if _, err := eng.FinishRun(); err == nil {
		t.Fatal("FinishRun accepted twice")
	}

	// And the reverse: the stepped API rejects an engine already consumed
	// by Run.
	eng = fresh()
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := eng.StepTo(10); err == nil {
		t.Fatal("StepTo accepted after Run")
	}
}
