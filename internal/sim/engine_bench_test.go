package sim

import (
	"testing"

	"lowsensing/internal/core"
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
