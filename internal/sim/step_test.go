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
// trace source — per-packet or per-batch injection — EngineStats included.
func TestSteppedMatchesRun(t *testing.T) {
	eng, err := NewEngine(stepParams(t, &traceSource{batches: stepTrace}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want.Completed != want.Arrived || want.Arrived != 64 {
		t.Fatalf("reference run did not deliver everything: %+v", want)
	}
	for _, perPacket := range []bool{false, true} {
		got := stepRun(t, perPacket)
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

// TestSteppedIgnoresArrivalSource: only Run draws from Params.Arrivals. A
// stepped engine injects exactly what InjectAt hands it, so StepTo and
// FinishRun over a source that still holds batches inject nothing and
// leave the source undrawn.
func TestSteppedIgnoresArrivalSource(t *testing.T) {
	src := &traceSource{batches: stepTrace}
	eng, err := NewEngine(stepParams(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StepTo(2000); err != nil {
		t.Fatal(err)
	}
	if eng.Arrived() != 0 {
		t.Fatalf("StepTo injected %d packets from the source", eng.Arrived())
	}
	r, err := eng.FinishRun()
	if err != nil {
		t.Fatal(err)
	}
	if r.Arrived != 0 || r.ActiveSlots != 0 || r.EngineStats.SlotsResolved != 0 {
		t.Fatalf("stepped run consumed the source: %+v", r)
	}
	if src.pos != 0 {
		t.Fatalf("stepped run drew %d batches from the source", src.pos)
	}
}

// TestRunIntoOverwritesStaleResult runs an engine into a Result still
// holding another run's values — truncated where this one is not and the
// reverse, with the fields only the layers above the engine fill
// (Classes, ClassFairness, Degradation, the cluster breakdown, Packets)
// set — and requires exactly what Run returns. This is the reuse a
// sweep's runner slots see, and the field check makes any new Result
// field part of it.
func TestRunIntoOverwritesStaleResult(t *testing.T) {
	run := func(maxSlots int64) Result {
		p := stepParams(t, &traceSource{batches: stepTrace})
		p.MaxSlots = maxSlots
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	full, truncated := run(1<<20), run(70)
	if full.Truncated || !truncated.Truncated {
		t.Fatal("the two runs do not differ in truncation")
	}
	for _, tc := range []struct {
		name     string
		stale    Result
		maxSlots int64
		want     Result
	}{
		{"truncated slot, full run", truncated, 1 << 20, full},
		{"full slot, truncated run", full, 70, truncated},
	} {
		stale := tc.stale
		stale.Abandoned += 5
		stale.Faults.Crashes += 3
		stale.Classes = []ClassResult{{Name: "stale"}}
		stale.ClassFairness = 0.5
		stale.Degradation = []ClassDelta{{Name: "stale"}}
		stale.PerChannel = []Result{{Arrived: 3}}
		stale.Routed = []int64{3}
		stale.ChannelFairness = 1
		stale.Packets = []PacketStats{{ID: 7}}
		sv, wv := reflect.ValueOf(stale), reflect.ValueOf(tc.want)
		for i := range sv.NumField() {
			if reflect.DeepEqual(sv.Field(i).Interface(), wv.Field(i).Interface()) {
				t.Fatalf("%s: the stale Result's %s equals the run's; make it differ so a field RunInto skips shows",
					tc.name, sv.Type().Field(i).Name)
			}
		}
		p := stepParams(t, &traceSource{batches: stepTrace})
		p.MaxSlots = tc.maxSlots
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunInto(&stale); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stale, tc.want) {
			t.Fatalf("%s: RunInto left\n%+v\nwant Run's\n%+v", tc.name, stale, tc.want)
		}
	}
}
