package lowsensing_test

import (
	"reflect"
	"slices"
	"testing"

	"lowsensing"
	"lowsensing/internal/metrics"
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
// TestBatchingEquivalence pins down the batch fast path's core promise: for
// every registered protocol kind × jammer kind (including none) × arrival
// kind, running with batching enabled and with Scenario.DisableBatching set
// produces bit-identical Results. Only the engine-mechanics counters that
// describe *how* slots were resolved — WheelCascades, HeapOverflows, and
// BatchedSlots itself — are allowed to differ, and those are normalized to
// zero on both sides before the comparison; everything else, including
// SlotsResolved, EventsScheduled, and the full streaming energy
// accumulators, must agree exactly.
//
// Each combo also runs three observed ways — batched and general with a
// capturing recorder plus a bound Collector, and batched with the capturing
// recorder alone — pinning observation invariance: every path emits the
// identical SlotEvent/PacketEvent stream, the Collector samples identically
// on both resolvers, and an observed Result equals the unobserved one.
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

	var batchedAnywhere, observedBatched int64
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
					on, err := sc.Run()
					if err != nil {
						t.Fatal(err)
					}
					sc.DisableBatching = true
					off, err := sc.Run()
					if err != nil {
						t.Fatal(err)
					}
					if off.EngineStats.BatchedSlots != 0 {
						t.Fatalf("DisableBatching run batched %d slots",
							off.EngineStats.BatchedSlots)
					}
					batchedAnywhere += on.EngineStats.BatchedSlots
					normalize := func(r *lowsensing.Result) {
						r.EngineStats.WheelCascades = 0
						r.EngineStats.HeapOverflows = 0
						r.EngineStats.BatchedSlots = 0
					}
					normalize(&on)
					normalize(&off)
					if !reflect.DeepEqual(on, off) {
						t.Fatalf("batching changed the result:\nbatched:  %+v\ngeneral:  %+v", on, off)
					}

					observe := func(disable, collect bool) (lowsensing.Result, eventStream, []metrics.Sample) {
						sc.DisableBatching = disable
						var stream eventStream
						col := &lowsensing.Collector{Every: 64}
						opts := []lowsensing.Option{lowsensing.WithRecorder(&stream)}
						if collect {
							opts = append(opts, lowsensing.WithRecorder(col))
						}
						r, err := sc.Simulation(opts...).Run()
						if err != nil {
							t.Fatal(err)
						}
						if !disable {
							observedBatched += r.EngineStats.BatchedSlots
						}
						normalize(&r)
						return r, stream, col.Samples()
					}
					obsOn, streamOn, samplesOn := observe(false, true)
					obsOff, streamOff, samplesOff := observe(true, true)
					_, streamBare, _ := observe(false, false)
					if !reflect.DeepEqual(obsOn, on) || !reflect.DeepEqual(obsOff, on) {
						t.Fatalf("observing changed the result:\nunobserved: %+v\nbatched:    %+v\ngeneral:    %+v", on, obsOn, obsOff)
					}
					if len(streamOn.slots) == 0 || !streamOn.equal(&streamOff) || !streamOn.equal(&streamBare) {
						t.Fatalf("event streams differ: batched %d, general %d, recorder-only %d events",
							len(streamOn.order), len(streamOff.order), len(streamBare.order))
					}
					if len(samplesOn) == 0 || !reflect.DeepEqual(samplesOn, samplesOff) {
						t.Fatalf("Collector samples differ: batched %d, general %d", len(samplesOn), len(samplesOff))
					}
				})
			}
		}
	}
	if batchedAnywhere == 0 || observedBatched == 0 {
		t.Fatalf("batch fast path engaged on %d unobserved and %d observed slots across the whole matrix; the equivalence test is vacuous",
			batchedAnywhere, observedBatched)
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
