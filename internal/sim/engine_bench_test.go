package sim

import (
	"testing"

	"lowsensing/internal/core"
	"lowsensing/internal/protocols"
)

// spacedSource injects one packet every gap slots — the singleton-stream
// workload: each packet lives and dies alone, so every one of its channel
// accesses is an uncontended slot.
type spacedSource struct{ n, total, gap int64 }

func (s *spacedSource) Next() (int64, int64, bool) {
	if s.n >= s.total {
		return 0, 0, false
	}
	slot := s.n * s.gap
	s.n++
	return slot, 1, true
}

// BenchmarkEngineSingletonStream measures the engine end to end on its
// thinnest workload: b.N packets arrive one at a time, spaced far enough
// apart that each is alone in the system for its whole lifetime, running
// LOW-SENSING BACKOFF (several geometrically-spaced accesses per packet —
// the tail of every real busy period looks like this). Every access is one
// wheel pop, one resolved single-accessor slot and one wheel push. ns/op
// is per packet.
func BenchmarkEngineSingletonStream(b *testing.B) {
	e, err := NewEngine(Params{
		Seed:          1,
		Arrivals:      &spacedSource{total: int64(b.N), gap: 1 << 13},
		NewStation:    core.MustFactory(core.Default()),
		ReuseStations: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := e.Run()
	if err != nil {
		b.Fatal(err)
	}
	if res.Arrived != int64(b.N) {
		b.Fatalf("arrived %d packets, want %d", res.Arrived, b.N)
	}
	events := res.Energy.Accesses.Sum
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(events)/float64(b.N), "accesses/packet")
}

// BenchmarkDispatch isolates the devirtualized station dispatch: one
// ScheduleNext + Observe round trip per op, through the kind-tagged jump
// table (devirt) versus the plain interface call (interface) that
// kindGeneric — and every engine before the tag existed — pays. The
// station is slotted ALOHA, whose methods are the cheapest of the
// built-ins (one geometric sample, a no-op Observe), so the call-machinery
// delta is the largest fraction of the measurement; same station, same rng
// stream, same observation either way.
func BenchmarkDispatch(b *testing.B) {
	factory, err := protocols.NewAlohaFactory(0.5)
	if err != nil {
		b.Fatal(err)
	}
	run := func(kind stationKind) func(*testing.B) {
		return func(b *testing.B) {
			var ss stationState
			ss.rng.Reinit(1, 1)
			ss.st = factory(0, &ss.rng)
			ss.kind = kind
			b.ReportAllocs()
			b.ResetTimer()
			from := int64(0)
			for i := 0; i < b.N; i++ {
				slot, sent := scheduleStation(&ss, from, &ss.rng)
				observeStation(&ss, Observation{
					Slot: slot, Outcome: OutcomeNoisy, Sent: sent,
				})
				from = slot + 1
				if from > 1<<40 {
					from = 0 // keep slot arithmetic bounded; ALOHA is memoryless
				}
			}
		}
	}
	b.Run("devirt", run(kindAloha))
	b.Run("interface", run(kindGeneric))
}
