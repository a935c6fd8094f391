package cluster

import (
	"fmt"
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
)

// benchConfig is the shared benchmark shape: 16 LSB channels fed Poisson
// packets through router. Round-robin routing takes the oblivious
// pre-routed path, where sharding is embarrassingly parallel.
func benchConfig(b *testing.B, packets int64, workers int, router Router) Config {
	b.Helper()
	src, err := arrivals.NewPoisson(0.5, packets, 21)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Channels:      16,
		Workers:       workers,
		Seed:          21,
		Arrivals:      src,
		Router:        router,
		NewStation:    core.MustFactory(core.Default()),
		ReuseStations: true,
	}
}

// BenchmarkClusterSharded measures one 16-channel cluster run end to end —
// routing, per-channel engines, merge — at increasing worker counts. The
// cluster simulates exactly b.N packets per run, so ns/op is per packet;
// results are byte-identical at every worker count (the determinism suite
// proves it), so the sub-benchmarks differ only in wall clock. Speedup
// needs real cores: on a single-CPU machine every worker count runs at the
// serial rate.
func BenchmarkClusterSharded(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := benchConfig(b, int64(b.N), workers, NewRoundRobin())
			b.ReportAllocs()
			b.ResetTimer()
			r, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if r.Total.Arrived != int64(b.N) {
				b.Fatalf("arrived %d packets, want %d", r.Total.Arrived, b.N)
			}
			events := r.Total.Energy.Accesses.Sum
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkClusterSteadyState runs one fixed-size serial cluster per
// iteration with no recorder attached, so allocs/op is the deterministic
// allocation footprint of the whole recorder-off cluster path — routing
// tables, per-channel engines, stations, merge — and the CI allocation
// gate can hold it flat. A warm-up run keeps one-time runtime setup out of
// the measured iterations.
func BenchmarkClusterSteadyState(b *testing.B) {
	benchSteadyState(b, 1, NewRoundRobin)
}

// BenchmarkClusterEpochSteadyState is BenchmarkClusterSteadyState on the
// epoch-synchronized path: the same 512-packet shape under the
// least-backlog router. It asks for 4 workers, which that path ignores, so
// the allocation gate also holds it to starting no goroutines and making
// no channels.
func BenchmarkClusterEpochSteadyState(b *testing.B) {
	benchSteadyState(b, 4, NewLeastBacklog)
}

// benchSteadyState runs one fixed-size cluster per iteration, after a
// warm-up run, and reports its allocations.
func benchSteadyState(b *testing.B, workers int, router func() Router) {
	const packets = 512
	run := func() {
		r, err := Run(benchConfig(b, packets, workers, router()))
		if err != nil {
			b.Fatal(err)
		}
		if r.Total.Arrived != packets {
			b.Fatalf("arrived %d packets, want %d", r.Total.Arrived, packets)
		}
	}
	run() // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
