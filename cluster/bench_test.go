package cluster

import (
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
)

// benchConfig is the shared benchmark shape: 16 LSB channels fed Poisson
// packets through router.
func benchConfig(b *testing.B, packets int64, router Router) Config {
	b.Helper()
	src, err := arrivals.NewPoisson(0.5, packets, 21)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Channels:   16,
		Seed:       21,
		Arrivals:   src,
		Router:     router,
		NewStation: core.MustFactory(core.Default()),
	}
}

// BenchmarkClusterSteadyState runs one fixed-size cluster per iteration
// with no recorder attached, so allocs/op is the deterministic allocation
// footprint of the whole recorder-off cluster path — routing tables,
// per-channel engines, stations, merge — and the CI allocation gate can
// hold it flat. A warm-up run keeps one-time runtime setup out of the
// measured iterations.
func BenchmarkClusterSteadyState(b *testing.B) {
	benchSteadyState(b, NewRoundRobin)
}

// BenchmarkClusterEpochSteadyState is BenchmarkClusterSteadyState under
// the least-backlog router, whose Route reads every channel's backlog at
// every arrival; the allocation gate also holds it to starting no
// goroutines and making no channels.
func BenchmarkClusterEpochSteadyState(b *testing.B) {
	benchSteadyState(b, NewLeastBacklog)
}

// benchSteadyState runs one fixed-size cluster per iteration, after a
// warm-up run, and reports its allocations.
func benchSteadyState(b *testing.B, router func() Router) {
	const packets = 512
	run := func() {
		r, err := Run(benchConfig(b, packets, router()))
		if err != nil {
			b.Fatal(err)
		}
		if r.Arrived != packets {
			b.Fatalf("arrived %d packets, want %d", r.Arrived, packets)
		}
	}
	run() // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
