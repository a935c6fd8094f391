package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// childReport is what one child process measured for one workload; the
// child prints it as JSON on its standard output.
type childReport struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Workers  int    `json:"workers"`
	// Attempted and Failed count operations over every pass the child
	// ran; Errors explains each failure.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Digest is the reference pass's combined output digest.
	Digest string `json:"digest"`
	// PassS and PeakRSSMB hold one sample per timed pass; SetupS holds
	// setupReps samples per timed pass.
	SetupS    []float64 `json:"setup_s"`
	PassS     []float64 `json:"pass_s"`
	PeakRSSMB []float64 `json:"peak_rss_mb"`
	// Events is EngineStats.EventsScheduled per pass; 0 when the workload
	// keeps its Results internal.
	Events int64    `json:"events"`
	Layers []metric `json:"layers"`
}

// metric is one named value.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// childConfig is one child's measurement job.
type childConfig struct {
	seconds float64
	workers int
	traced  bool
	// want maps unit names to the digests the default seed must
	// reproduce; nil at any other seed.
	want map[string]string
	// spans is the file the traced run writes its spans to ("" = none).
	spans string
}

// measure runs one untimed warm-up pass, whose outputs become the
// reference, then back-to-back timed passes until cfg.seconds have
// elapsed: a closed loop with one client. Before each timed pass the setup
// alone is timed setupReps times. Every pass starts from a collected heap
// whose free pages went back to the OS, as a fresh CLI process does, so no
// pass pays for the garbage of the one before it and each pass's peak
// resident set is its own.
func measure(name string, inst instance, cfg childConfig) childReport {
	rep := childReport{Workload: name, Traced: cfg.traced, Workers: cfg.workers}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	top := tr.begin(name) // the workload span: warm-up and timed passes nest in it
	fail := func(ops int, format string, args ...any) {
		rep.Failed += ops
		rep.Errors = append(rep.Errors, fmt.Sprintf(format, args...))
	}

	freshHeap()
	ref, _, err := onePass(inst, tr)
	if err != nil {
		rep.Attempted++
		fail(1, "warm-up pass: %v", err)
		return rep
	}
	rep.Attempted += ref.ops
	if ref.failed > 0 {
		fail(ref.failed, "warm-up pass: %d operations broke Arrived == Completed + Abandoned + Undelivered", ref.failed)
	}
	for _, u := range ref.units {
		if d, ok := cfg.want[u.name]; cfg.want != nil && (!ok || d != u.digest) {
			fail(u.ops, "%s: output differs from the recorded default-seed output", u.name)
		}
	}
	if cfg.want != nil && len(ref.units) != len(cfg.want) {
		fail(0, "%d outputs, want %d", len(ref.units), len(cfg.want))
	}
	rep.Digest = combinedDigest(ref.units)
	rep.Events = ref.events

	var (
		jobs jobTimes
		rt   runtimeSample // runtime counters summed over the timed passes alone
	)
	tr.startTimed()
	start := time.Now() //lsbvet:wallclock benchmark time budget
passes:
	for {
		for range setupReps {
			d, err := timeSetup(inst, tr)
			if err != nil {
				rep.Attempted += ref.ops
				fail(ref.ops, "pass %d: setup: %v", len(rep.PassS)+1, err)
				break passes
			}
			rep.SetupS = append(rep.SetupS, d.Seconds())
		}
		freshHeap()
		before := readRuntime()
		out, total, err := onePass(inst, tr)
		rt.addSince(before)
		rep.Attempted += ref.ops
		if err != nil {
			fail(ref.ops, "pass %d: %v", len(rep.PassS)+1, err)
			break
		}
		rep.PassS = append(rep.PassS, total.Seconds())
		rep.PeakRSSMB = append(rep.PeakRSSMB, peakRSSMB())
		jobs.add(out.jobWalls)
		if out.failed > 0 {
			fail(out.failed, "pass %d: %d operations broke conservation", len(rep.PassS), out.failed)
		}
		if d := combinedDigest(out.units); d != rep.Digest {
			fail(out.ops, "pass %d: output differs from the warm-up pass at the same seed", len(rep.PassS))
		}
		if time.Since(start).Seconds() >= cfg.seconds { //lsbvet:wallclock benchmark time budget
			break
		}
	}
	tr.end(top)
	if len(rep.PassS) == 0 {
		return rep
	}
	if !cfg.traced {
		rep.Layers = countLayers(ref, rep, jobs, rt)
		return rep
	}
	rep.Layers = tracedLayers(tr, ref, float64(len(rep.PassS)), cfg.workers)
	if cfg.spans != "" {
		if err := tr.writeSpans(cfg.spans); err != nil {
			fail(0, "writing spans: %v", err)
		}
	}
	return rep
}

// jobTimes summarizes sweep job walls pass by pass, so that what the
// child holds does not grow with the number of passes it runs.
type jobTimes struct {
	p50us, p99us []float64 // one per timed pass
	sumS         float64   // every timed job's wall, summed
}

func (j *jobTimes) add(walls []time.Duration) {
	if len(walls) == 0 {
		return
	}
	us := make([]float64, len(walls))
	for i, w := range walls {
		us[i] = float64(w.Nanoseconds()) / 1e3
		j.sumS += w.Seconds()
	}
	slices.Sort(us)
	j.p50us = append(j.p50us, quantileSorted(us, 0.5))
	j.p99us = append(j.p99us, quantileSorted(us, 0.99))
}

// countLayers derives the per-layer metrics the untraced run gives for
// free: the Go runtime's counters, EngineStats, and sweep job walls.
func countLayers(ref passOut, rep childReport, jobs jobTimes, rt runtimeSample) []metric {
	var ms []metric
	add := func(name, unit string, v float64) { ms = append(ms, metric{Name: name, Unit: unit, Value: v}) }
	n := float64(len(rep.PassS))
	add("runtime.alloc_mb_per_pass", "MB", float64(rt.allocBytes)/(1<<20)/n)
	add("runtime.allocs_per_pass", "count", float64(rt.mallocs)/n)
	add("runtime.gc_cycles_per_pass", "count", float64(rt.gcCycles)/n)
	add("runtime.gc_cpu_share", "ratio", ratio(rt.gcCPU, rt.busyCPU))
	if ref.events > 0 {
		add("sim.events", "count", float64(ref.events))
	}
	if e := ref.engine; e.SlotsResolved > 0 {
		add("sim.slots_resolved", "count", float64(e.SlotsResolved))
		add("sim.events_per_resolved_slot", "ratio", ratio(float64(e.EventsScheduled), float64(e.SlotsResolved)))
		add("sim.batched_share", "ratio", ratio(float64(e.BatchedSlots), float64(e.SlotsResolved)))
		add("sim.skip_share", "ratio", 1-ratio(float64(e.SlotsResolved), float64(ref.active)))
		add("sim.wheel_cascades", "count", float64(e.WheelCascades))
		add("sim.heap_overflows", "count", float64(e.HeapOverflows))
		add("sim.stations_built", "count", float64(e.StationsBuilt))
		add("sim.stations_reused", "count", float64(e.StationsReused))
		add("sim.peak_backlog", "count", float64(e.PeakBacklog))
		add("sim.peak_slot_table", "count", float64(e.PeakSlotTable))
	}
	if len(jobs.p50us) > 0 {
		var passWall float64
		for _, p := range rep.PassS {
			passWall += p
		}
		_, p50, _ := quartiles(jobs.p50us)
		_, p99, _ := quartiles(jobs.p99us)
		add("runner.jobs", "count", float64(len(ref.jobWalls)))
		add("runner.job_p50_us", "us", p50)
		add("runner.job_p99_us", "us", p99)
		add("runner.utilization", "ratio", jobs.sumS/(passWall*float64(rep.Workers)))
	}
	return ms
}

// tracedLayers derives the per-layer timings of a traced run of n timed
// passes, with the clock's own cost taken out of every timed call.
func tracedLayers(tr *tracer, ref passOut, n float64, workers int) []metric {
	var ms []metric
	add := func(name, unit string, v float64) { ms = append(ms, metric{Name: name, Unit: unit, Value: v}) }
	cal := calibrate()
	add("prng.ns_per_uint64", "ns", cal.prngNs)
	add("dist.ns_per_geometric", "ns", cal.geometricNs)
	add("trace.clock_ns", "ns", cal.clockNs)
	// capacity is the worker time the layers could have used: the run
	// spans' wall time, times the workers for sweeps and clusters.
	capacity := float64(tr.dur("run"))
	if d := tr.dur("sweep") + tr.dur("cluster-run"); d > 0 {
		capacity = float64(d) * float64(workers)
	}
	var layerNs float64
	prefixes := [numLayers]string{"core.", "protocols.", "arrivals.", "jamming.", "cluster.route_"}
	for l, lc := range tr.layers {
		if lc.Timed == 0 {
			continue
		}
		ns := max(float64(lc.Ns)-float64(lc.Timed)*cal.clockNs, 0) * float64(lc.Calls) / float64(lc.Timed)
		layerNs += ns
		add(prefixes[l]+"calls", "count", float64(lc.Calls)/n)
		add(prefixes[l]+"ns_per_call", "ns", ns/float64(lc.Calls))
		add(prefixes[l]+"share", "ratio", ratio(ns, capacity))
	}
	if e := tr.layers[layerCluster].Epochs; e > 0 {
		add("cluster.epochs", "count", float64(e)/n)
	}
	// The engine's own time is what its runs took minus the layers below
	// it: the run spans for single runs, the jobs' own walls for sweeps.
	// Cluster workers also wait at barriers, which no span separates, so
	// clusters report none.
	if ref.events > 0 && tr.dur("cluster-run") == 0 {
		busy := float64(tr.dur("run"))
		for _, s := range tr.timed() {
			if strings.HasPrefix(s.Name, "job ") {
				busy += float64(s.End - s.Start)
			}
		}
		add("sim.self_ns_per_event", "ns", (busy-layerNs)/(float64(ref.events)*n))
	}
	if v := tr.median("validate"); v > 0 {
		parse := tr.median("parse")
		if parse == 0 { // ParseScenario validates too
			parse = tr.median("parse+validate") - v
		}
		add("scenario.parse_s", "s", parse)
		add("scenario.validate_s", "s", v)
	}
	if tr.dur("sweep") > 0 {
		add("runner.fold_s", "s", float64(tr.foldNs)/1e9/n)
	}
	var render float64
	for _, u := range ref.units {
		if v := tr.median("exp " + u.name); v > 0 {
			add("harness.exp_s."+u.name, "s", v)
			render += tr.median("render " + u.name)
		}
	}
	if render > 0 {
		add("harness.render_s", "s", render)
	}
	return ms
}

// setupReps is how many times the setup is timed on its own before each
// timed pass. A setup takes microseconds, so each pass's own setup, run
// cold on a fresh heap, moves with every page fault and cache miss;
// repeated warm setups measure the parsing, validating and building.
const setupReps = 5

// timeSetup runs inst's setup once and returns its wall time.
func timeSetup(inst instance, tr *tracer) (time.Duration, error) {
	s := tr.begin("setup")
	defer tr.end(s)
	t0 := time.Now() //lsbvet:wallclock setup timing
	err := inst.setup(tr)
	return time.Since(t0), err //lsbvet:wallclock setup timing
}

// onePass runs setup then run, returning the pass's wall time.
func onePass(inst instance, tr *tracer) (passOut, time.Duration, error) {
	p := tr.begin("pass")
	defer tr.end(p)
	t0 := time.Now() //lsbvet:wallclock pass timing
	if _, err := timeSetup(inst, tr); err != nil {
		return passOut{}, time.Since(t0), fmt.Errorf("setup: %w", err) //lsbvet:wallclock pass timing
	}
	out, err := inst.run(tr)
	return out, time.Since(t0), err //lsbvet:wallclock pass timing
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters, or
// a sum of their changes.
type runtimeSample struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcCPU, busyCPU      float64
}

// addSince adds the counters' change since before to s.
func (s *runtimeSample) addSince(before runtimeSample) {
	now := readRuntime()
	s.allocBytes += now.allocBytes - before.allocBytes
	s.mallocs += now.mallocs - before.mallocs
	s.gcCycles += now.gcCycles - before.gcCycles
	s.gcCPU += now.gcCPU - before.gcCPU
	s.busyCPU += now.busyCPU - before.busyCPU
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcCycles:   ms.NumGC,
		gcCPU:      s[0].Value.Float64(),
		busyCPU:    s[1].Value.Float64() - s[2].Value.Float64(),
	}
}

// freshHeap collects the heap, returns its free pages to the OS and
// restarts the peak resident set from what remains.
func freshHeap() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later). Where it
	// cannot, peakRSSMB reports the peak since the process started.
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		_, _ = f.WriteString("5")
		f.Close()
	}
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB since
// the last freshHeap, or the memory obtained from the OS where /proc is
// unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantileSorted interpolates the q-quantile of sorted values.
func quantileSorted(xs []float64, q float64) float64 {
	r := q * float64(len(xs)-1)
	i := int(r)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (r-float64(i))*(xs[i+1]-xs[i])
}

// quartiles returns the first quartile, median and third quartile of xs
// with the exclusive method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
