// Package lowsensing_test: the external test package breaks the
// lowsensing ↔ internal/harness import cycle now that the harness drives
// its experiments through the public API.
package lowsensing_test

// This file is the benchmark harness entry point (deliverable (d)): one
// testing.B target per experiment in the harness registry (E1–E15,
// A1–A3). Each BenchmarkE*/A* target re-runs the corresponding harness
// experiment end to end at small scale; `go run ./cmd/experiments -scale
// full` regenerates the full-scale tables. Additional micro-benchmarks
// measure the simulator substrate itself.

import (
	"runtime"
	"strconv"
	"testing"

	"lowsensing"
	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/internal/harness"
	"lowsensing/internal/jamming"
	"lowsensing/internal/sim"
	"lowsensing/prng"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	rc := harness.SmallRunConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc.Seed = 20240617 + uint64(i)
		if _, err := exp.Run(rc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1BatchThroughput regenerates E1 (Cor 1.4): batch throughput of
// LSB vs BEB vs full-sensing baselines across N.
func BenchmarkE1BatchThroughput(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2EnergyScaling regenerates E2 (Thm 1.6): per-packet channel
// accesses vs N with growth-class fits.
func BenchmarkE2EnergyScaling(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3JammingThroughput regenerates E3 (Cor 1.4 with jamming).
func BenchmarkE3JammingThroughput(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4QueueBacklog regenerates E4 (Cor 1.5): O(S) backlog under
// adversarial-queuing arrivals.
func BenchmarkE4QueueBacklog(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5QueueEnergy regenerates E5 (Thm 1.7): polylog(S) accesses
// under adversarial-queuing arrivals.
func BenchmarkE5QueueEnergy(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6ReactiveJamming regenerates E6 (Thm 1.9): targeted reactive
// jamming inflates the victim, not the average.
func BenchmarkE6ReactiveJamming(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7EnergyComparison regenerates E7: the cross-protocol
// energy/throughput table.
func BenchmarkE7EnergyComparison(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8PotentialTrajectory regenerates E8 (§4.2): the Φ(t) drain.
func BenchmarkE8PotentialTrajectory(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9WindowTrace regenerates E9 (Figure 1): the slot-level trace.
func BenchmarkE9WindowTrace(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Fairness regenerates E10 (§6 open problem): latency fairness
// of LSB vs baselines.
func BenchmarkE10Fairness(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11SawtoothDynamics regenerates E11: oblivious sawtooth backoff
// vs LSB across batch and dynamic workloads.
func BenchmarkE11SawtoothDynamics(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12FeedbackAblation regenerates E12: LSB under binary
// (no-collision-detection) feedback.
func BenchmarkE12FeedbackAblation(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13CapacitySweep regenerates E13: steady-state capacity under
// Bernoulli arrivals.
func BenchmarkE13CapacitySweep(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14InfiniteStream regenerates E14 (Thm 1.3/1.8): implicit
// throughput at every checkpoint of an infinite jammed stream.
func BenchmarkE14InfiniteStream(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15Deadlines regenerates E15 (§6 extension): deadline-miss rate
// vs jamming volume.
func BenchmarkE15Deadlines(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkA1UpdateRuleAblation regenerates A1: paper update rule vs
// doubling.
func BenchmarkA1UpdateRuleAblation(b *testing.B) { benchExperiment(b, "A1") }

// BenchmarkA2ParameterSweep regenerates A2: (c, w_min) sensitivity.
func BenchmarkA2ParameterSweep(b *testing.B) { benchExperiment(b, "A2") }

// BenchmarkA3LnPowerAblation regenerates A3: the ln-exponent k of the
// access probability.
func BenchmarkA3LnPowerAblation(b *testing.B) { benchExperiment(b, "A3") }

// BenchmarkParallelSweep measures how experiment sweeps scale with the
// runner's worker count: the same E1 sweep (the largest embarrassingly
// parallel experiment) at 1, 2, 4, ... workers up to the machine. ns/op
// should fall roughly linearly with workers until the core count; the
// tables produced are byte-identical at every width (enforced by
// TestSerialParallelIdentical).
func BenchmarkParallelSweep(b *testing.B) {
	exp, err := harness.ByID("E1")
	if err != nil {
		b.Fatal(err)
	}
	maxWorkers := runtime.NumCPU()
	if maxWorkers < 4 {
		maxWorkers = 4 // still exercise concurrent widths on small machines
	}
	for workers := 1; workers <= maxWorkers; workers *= 2 {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			rc := harness.SmallRunConfig()
			rc.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc.Seed = 20240617 + uint64(i)
				if _, err := exp.Run(rc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sweepGridSpec is a scaled-down copy of the sweep-grid benchmark workload
// (bench/workloads/sweep-grid.json): the same protocol × arrivals × jammer
// grid of tiny runs, at 4 replications a point instead of 160.
const sweepGridSpec = `{
  "id": "bench-sweep-grid",
  "seed": 20240617,
  "reps": 4,
  "base": {"arrivals": {"kind": "batch", "n": 8}, "protocol": {"kind": "lsb"}},
  "axes": [
    {"name": "protocol", "variants": [
      {"label": "lsb", "patch": {"protocol": {"kind": "lsb"}}},
      {"label": "beb", "patch": {"protocol": {"kind": "beb"}}},
      {"label": "sawtooth", "patch": {"protocol": {"kind": "sawtooth"}}},
      {"label": "mwu", "patch": {"protocol": {"kind": "mwu"}}}
    ]},
    {"name": "arrivals", "variants": [
      {"label": "batch8", "patch": {"arrivals": {"kind": "batch", "n": 8}}},
      {"label": "batch16", "patch": {"arrivals": {"kind": "batch", "n": 16}}},
      {"label": "bernoulli", "patch": {"arrivals": {"kind": "bernoulli", "rate": 0.05, "n": 16}}},
      {"label": "aqt", "patch": {"arrivals": {"kind": "aqt", "granularity": 32, "rate": 0.25, "windows": 2}}}
    ]},
    {"name": "jammer", "variants": [
      {"label": "none"},
      {"label": "random", "patch": {"jammer": {"kind": "random", "rate": 0.1}}}
    ]}
  ]
}`

// BenchmarkSweepStream streams a grid of many tiny runs through
// Sweep.Stream, where the fixed cost of each job — scenario resolution,
// engine construction, the runner's reorder window — outweighs the
// simulation itself. Workers is fixed at 2 so that allocs/op does not
// depend on the machine's CPU count.
func BenchmarkSweepStream(b *testing.B) {
	ss, err := lowsensing.ParseSweepSpec([]byte(sweepGridSpec))
	if err != nil {
		b.Fatal(err)
	}
	sw, err := ss.Sweep()
	if err != nil {
		b.Fatal(err)
	}
	sw.Workers(2)
	jobs := len(sw.Points()) * ss.Reps
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sw.Stream(func(lowsensing.PointResult) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(jobs*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// --- substrate micro-benchmarks ---

// BenchmarkEngineBatchLSB measures end-to-end simulation cost for LSB
// batches of increasing size; ns/op divided by N approximates cost per
// packet delivered.
func BenchmarkEngineBatchLSB(b *testing.B) {
	for _, n := range []int64{256, 1024, 4096} {
		b.Run("N="+strconv.FormatInt(n, 10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := sim.NewEngine(sim.Params{
					Seed:          uint64(i) + 1,
					Arrivals:      arrivals.NewBatch(n),
					NewStation:    core.MustFactory(core.Default()),
					ReuseStations: true,
					MaxSlots:      1 << 26,
				})
				if err != nil {
					b.Fatal(err)
				}
				r, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				if r.Completed != n {
					b.Fatalf("incomplete run: %d/%d", r.Completed, n)
				}
			}
		})
	}
}

// BenchmarkEngineJammedLSB measures simulation cost under 25% random
// jamming.
func BenchmarkEngineJammedLSB(b *testing.B) {
	const n = 1024
	for i := 0; i < b.N; i++ {
		jam, err := jamming.NewRandom(0.25, 0, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		e, err := sim.NewEngine(sim.Params{
			Seed:          uint64(i) + 1,
			Arrivals:      arrivals.NewBatch(n),
			NewStation:    core.MustFactory(core.Default()),
			Jammer:        jam,
			ReuseStations: true,
			MaxSlots:      1 << 26,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleNext measures the per-event cost of the core algorithm's
// scheduling path (geometric gap + send coin).
func BenchmarkScheduleNext(b *testing.B) {
	p, err := core.NewPacket(core.Default())
	if err != nil {
		b.Fatal(err)
	}
	rng := prng.New(1)
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot, _ := p.ScheduleNext(int64(i), rng)
		sink ^= slot
	}
	_ = sink
}

// BenchmarkObserve measures the window-update cost. Alternating noise and
// silence reaches a new window on almost every call, so nearly every call
// misses the window memo and recomputes.
func BenchmarkObserve(b *testing.B) {
	p, err := core.NewPacket(core.Default())
	if err != nil {
		b.Fatal(err)
	}
	obs := []sim.Observation{
		{Outcome: sim.OutcomeNoisy},
		{Outcome: sim.OutcomeEmpty},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(obs[i&1])
	}
}

// BenchmarkObserveRevisit measures the window-update cost when the packet
// revisits windows: two noisy slots then three silent ones return the
// default configuration's packet to WMin, so after the first cycle every
// move is a memo hit or the copy of the WMin state.
func BenchmarkObserveRevisit(b *testing.B) {
	cfg := core.Default()
	p, err := core.NewPacket(cfg)
	if err != nil {
		b.Fatal(err)
	}
	noisy, empty := sim.Observation{Outcome: sim.OutcomeNoisy}, sim.Observation{Outcome: sim.OutcomeEmpty}
	cycle := []sim.Observation{noisy, noisy, empty, empty, empty}
	for _, o := range cycle {
		p.Observe(o)
	}
	if p.Window() != cfg.WMin {
		b.Fatalf("the cycle ends at window %v, not WMin = %v", p.Window(), cfg.WMin)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Observe(cycle[i%len(cycle)])
	}
}

// BenchmarkEngineMemory demonstrates the engine's O(backlog) memory model
// on a 1M-packet Poisson stream: only the free-listed slot table and
// constant-size accumulators stay live. The "live-B/run" metric is the
// post-GC live-heap delta attributable to the finished run. Run with
// -benchmem to see the allocation count too.
func BenchmarkEngineMemory(b *testing.B) {
	const packets = 1_000_000
	b.Run("streaming", func(b *testing.B) {
		var liveBytes int64
		for i := 0; i < b.N; i++ {
			runtime.GC()
			var m0 runtime.MemStats
			runtime.ReadMemStats(&m0)
			r, err := lowsensing.Scenario{
				Seed:     uint64(i) + 42,
				Arrivals: lowsensing.PoissonArrivals(0.2, packets),
				MaxSlots: 1 << 34,
			}.Run()
			if err != nil {
				b.Fatal(err)
			}
			if r.Completed != packets {
				b.Fatalf("incomplete run: %d/%d", r.Completed, packets)
			}
			runtime.GC()
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			if d := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); d > 0 {
				liveBytes += d
			}
			runtime.KeepAlive(r)
		}
		b.ReportMetric(float64(liveBytes)/float64(b.N), "live-B/run")
	})
}
