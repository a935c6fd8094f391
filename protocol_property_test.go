package lowsensing_test

import (
	"reflect"
	"slices"
	"testing"

	"lowsensing"
)

// TestRegisteredProtocolInvariants runs every registered protocol kind —
// built-in or third-party, whatever this test binary has registered — on a
// small batch scenario and checks the invariants any contention-resolution
// protocol must satisfy on this engine. Registrations whose bare
// {"kind": ...} spec is constructible get this coverage for free, which is
// why factories should default their parameters (see RegisterProtocol).
//
//   - Determinism: the same seed produces the identical Result, bit for
//     bit, including the streaming energy accumulators.
//   - Accounting: every arrived packet is accounted in the accumulators,
//     and throughput (T+J)/S lies in [0, 1].
//   - Completion: a non-truncated run delivered everything.
//
// TestBatchingEquivalence pins down observation invariance (its name
// predates the engine's single slot resolver). For every registered
// protocol kind × jammer kind (including none) × arrival kind, the
// scenario runs three ways: unobserved; observed by a capturing recorder,
// a bound Collector, and a second capturing recorder after it; and observed
// by a capturing recorder alone. Both observed Results must equal the
// unobserved one exactly — EngineStats in full, nothing normalized — all
// three captured event streams must be equal and non-empty, and the
// Collector must have sampled. The Collector is the one recorder that reads
// engine state (windows, backlog, Φ), so this is also the check that
// sampling it perturbs no run.
func TestBatchingEquivalence(t *testing.T) {
	const n = 48
	protoFallback := map[string]lowsensing.ProtocolSpec{
		lowsensing.ProtocolAloha: lowsensing.Aloha(1.0 / n),
	}
	jammers := []struct {
		name string
		spec lowsensing.JammerSpec
	}{
		{"none", lowsensing.JammerSpec{}},
	}
	jamFallback := map[string]lowsensing.JammerSpec{
		lowsensing.JammerRandom:   lowsensing.RandomJamming(0.1, 0),
		lowsensing.JammerBurst:    lowsensing.BurstJamming(4, 200),
		lowsensing.JammerReactive: lowsensing.ReactiveJamming(0, 16),
	}
	for _, kd := range lowsensing.JammerKinds() {
		spec := lowsensing.JammerSpec{Kind: kd.Kind}
		if _, err := spec.Jammer(1); err != nil {
			fb, ok := jamFallback[kd.Kind]
			if !ok {
				continue // bare spec not constructible and no fallback
			}
			spec = fb
		}
		jammers = append(jammers, struct {
			name string
			spec lowsensing.JammerSpec
		}{kd.Kind, spec})
	}
	arrivals := []struct {
		name string
		spec lowsensing.ArrivalsSpec
	}{}
	arrFallback := map[string]lowsensing.ArrivalsSpec{
		lowsensing.ArrivalsBatch:     lowsensing.BatchArrivals(n),
		lowsensing.ArrivalsBernoulli: lowsensing.BernoulliArrivals(0.02, n),
		lowsensing.ArrivalsPoisson:   lowsensing.PoissonArrivals(0.02, n),
		lowsensing.ArrivalsQueue:     lowsensing.QueueArrivals(64, 0.5, 8),
	}
	for _, kd := range lowsensing.ArrivalKinds() {
		spec := lowsensing.ArrivalsSpec{Kind: kd.Kind}
		if _, err := spec.Source(1); err != nil {
			fb, ok := arrFallback[kd.Kind]
			if !ok {
				continue // e.g. file arrivals: needs a trace path
			}
			spec = fb
		}
		arrivals = append(arrivals, struct {
			name string
			spec lowsensing.ArrivalsSpec
		}{kd.Kind, spec})
	}

	for _, kd := range lowsensing.ProtocolKinds() {
		proto := lowsensing.ProtocolSpec{Kind: kd.Kind}
		if _, err := proto.Factory(); err != nil {
			fb, ok := protoFallback[kd.Kind]
			if !ok {
				continue
			}
			proto = fb
		}
		for _, jam := range jammers {
			for _, arr := range arrivals {
				t.Run(kd.Kind+"/"+jam.name+"/"+arr.name, func(t *testing.T) {
					sc := lowsensing.Scenario{
						Seed:     11,
						Arrivals: arr.spec,
						Protocol: proto,
						Jammer:   jam.spec,
						MaxSlots: 1 << 18,
					}
					bare, err := sc.Run()
					if err != nil {
						t.Fatal(err)
					}

					var before, after, alone eventStream
					col := &lowsensing.Collector{Every: 64}
					observed, err := sc.Simulation(lowsensing.WithRecorder(&before),
						lowsensing.WithRecorder(col), lowsensing.WithRecorder(&after)).Run()
					if err != nil {
						t.Fatal(err)
					}
					recorded, err := sc.Simulation(lowsensing.WithRecorder(&alone)).Run()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(observed, bare) || !reflect.DeepEqual(recorded, bare) {
						t.Fatalf("observing changed the result:\nunobserved:    %+v\nobserved:      %+v\nrecorder-only: %+v", bare, observed, recorded)
					}
					if len(before.slots) == 0 || !before.equal(&after) || !before.equal(&alone) {
						t.Fatalf("event streams differ: before Collector %d, after Collector %d, recorder-only %d events",
							len(before.order), len(after.order), len(alone.order))
					}
					if len(col.Samples()) == 0 {
						t.Fatal("Collector took no samples")
					}
				})
			}
		}
	}
}

// eventStream is a test recorder capturing a run's whole event stream:
// both kinds of event plus their interleaving (order[i] is true for a slot
// event).
type eventStream struct {
	slots   []lowsensing.SlotEvent
	packets []lowsensing.PacketEvent
	order   []bool
}

func (s *eventStream) RecordSlot(ev lowsensing.SlotEvent) {
	s.slots = append(s.slots, ev)
	s.order = append(s.order, true)
}

func (s *eventStream) RecordPacket(p lowsensing.PacketEvent) {
	s.packets = append(s.packets, p)
	s.order = append(s.order, false)
}

func (s *eventStream) equal(o *eventStream) bool {
	return slices.Equal(s.slots, o.slots) && slices.Equal(s.packets, o.packets) && slices.Equal(s.order, o.order)
}

func TestRegisteredProtocolInvariants(t *testing.T) {
	const n = 48
	// Kinds whose bare spec is intentionally not constructible, with the
	// parameters the suite should use instead.
	fallback := map[string]lowsensing.ProtocolSpec{
		lowsensing.ProtocolAloha: lowsensing.Aloha(1.0 / n),
	}
	for _, kd := range lowsensing.ProtocolKinds() {
		kd := kd
		t.Run(kd.Kind, func(t *testing.T) {
			spec := lowsensing.ProtocolSpec{Kind: kd.Kind}
			if _, err := spec.Factory(); err != nil {
				fb, ok := fallback[kd.Kind]
				if !ok {
					t.Skipf("bare spec not constructible and no fallback: %v", err)
				}
				spec = fb
			}
			sc := lowsensing.Scenario{
				Seed:     11,
				Arrivals: lowsensing.BatchArrivals(n),
				Protocol: spec,
				MaxSlots: 1 << 20,
			}
			r1, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			r2, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("same seed, different results:\n%+v\nvs\n%+v", r1, r2)
			}

			if r1.Arrived != n {
				t.Fatalf("arrived %d, want %d", r1.Arrived, n)
			}
			if got := r1.Energy.Packets(); got != n {
				t.Fatalf("accumulators cover %d packets, want %d", got, n)
			}
			if r1.Energy.Undelivered != r1.Arrived-r1.Completed {
				t.Fatalf("undelivered accounting: %d vs %d-%d",
					r1.Energy.Undelivered, r1.Arrived, r1.Completed)
			}
			if tput := r1.Throughput(); !(tput >= 0 && tput <= 1) {
				t.Fatalf("throughput %v outside [0,1]", tput)
			}
			if !r1.Truncated {
				if r1.Completed != n {
					t.Fatalf("non-truncated run delivered %d of %d", r1.Completed, n)
				}
				if tput := r1.Throughput(); !(tput > 0) {
					t.Fatalf("complete run with throughput %v", tput)
				}
			}
		})
	}
}
