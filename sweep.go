package lowsensing

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"lowsensing/internal/runner"
	"lowsensing/obs"
)

// Sweep is a declarative multi-run experiment: a base Scenario, one or more
// axes that each vary part of it, and a replication count. It is built from
// a SweepSpec (SweepSpec.Sweep), the only sweep definition; what a spec
// cannot hold as data — the worker count, progress and recorder hooks — is
// attached to the built Sweep. Executing the sweep runs every (point,
// replication) pair of the cartesian grid on a worker pool and aggregates
// each point's replications into streaming statistics — no per-packet data
// is ever retained, so sweeps scale to arbitrarily long runs. A built Sweep
// can be run any number of times.
//
// Reproducibility contract: every job's seed is derived only from
// (Seed, ID, point index, replication index) via the same SplitMix64 chain
// the experiment harness uses, results are folded in job order, and
// aggregation is single-threaded — so the output is a pure function of the
// sweep spec, whatever Workers is.
//
// Clusters sweep like anything else: a base scenario with Channels >= 1
// makes every job a cluster run (or an axis patch sets "channels" and
// "router" per point), and the folded Result is the cluster's merged
// Total. Each job steps its channels serially, and the sweep runs jobs in
// parallel, which keeps the pool fully loaded.
//
//	ss, err := lowsensing.ParseSweepSpec([]byte(`{
//	    "reps": 5,
//	    "base": {"arrivals": {"kind": "bernoulli", "rate": 0.05, "n": 512}},
//	    "axes": [
//	        {"name": "rate", "variants": [
//	            {"label": "0.05"},
//	            {"label": "0.2", "patch": {"arrivals": {"rate": 0.2}}}]},
//	        {"name": "protocol", "variants": [
//	            {"label": "lsb"},
//	            {"label": "beb", "patch": {"protocol": {"kind": "beb"}}}]}
//	    ]}`))
//	sw, err := ss.Sweep()
//	points, err := sw.Run()
type Sweep struct {
	id       string
	seed     uint64
	reps     int
	points   []Point
	workers  int
	progress func(SweepProgress)
	observe  func(Point, int) Recorder
}

// Workers bounds how many simulations run concurrently; 0 (the default)
// means one worker per usable CPU, and a negative count fails Stream.
// Results are identical for every value.
func (sw *Sweep) Workers(n int) *Sweep {
	sw.workers = n
	return sw
}

// SweepProgress is one progress report of a running sweep, delivered once
// per finished job (point × replication), in grid order.
type SweepProgress struct {
	// Done counts finished jobs; Total is the sweep's job count.
	Done, Total int
	// Point and Rep identify the finished job.
	Point Point
	Rep   int
	// Wall is the job's own wall-clock run time; Elapsed is the wall time
	// since the sweep started.
	Wall, Elapsed time.Duration
	// Events is the number of scheduler events the job processed
	// (EngineStats.EventsScheduled) — the engine's unit of work. For
	// cluster jobs it sums every channel's engine, so EventsPerSec and
	// the ETA weigh multi-channel jobs by their full workload, not by
	// channel 0 alone.
	Events int64
	// ETA estimates the remaining wall time from the mean job rate so far.
	ETA time.Duration
}

// EventsPerSec returns the job's engine events per second of its own wall
// time (0 for an instantaneous job).
func (p SweepProgress) EventsPerSec() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(p.Events) / p.Wall.Seconds()
}

// Progress attaches a callback receiving one SweepProgress per finished
// job, in grid order, from the (single-threaded) aggregation goroutine —
// the callback needs no locking. It does not affect results.
func (sw *Sweep) Progress(fn func(SweepProgress)) *Sweep {
	sw.progress = fn
	return sw
}

// ProgressTo streams one human-readable progress line per finished job to
// w (conventionally os.Stderr, keeping stdout clean for results):
//
//	[3/12] rate=0.1 protocol=lsb rep 1: 12ms, 2.1e+06 events/sec, ETA 110ms
func (sw *Sweep) ProgressTo(w io.Writer) *Sweep {
	return sw.Progress(func(p SweepProgress) {
		fmt.Fprintf(w, "[%d/%d] %s rep %d: %s, %.3g events/sec, ETA %s\n",
			p.Done, p.Total, p.Point, p.Rep,
			p.Wall.Round(time.Millisecond), p.EventsPerSec(), p.ETA.Round(time.Millisecond))
	})
}

// Observe attaches a per-job recorder factory: mk is called once per
// (point, replication) job with the job's Point and replication index, and
// the recorder it returns (nil to skip the job) receives that run's event
// stream. The factory is called from worker goroutines and must be safe
// for concurrent use; the recorders it returns are each driven by one job
// on one goroutine (a cluster job's recorder sees its channels' events
// interleaved in epoch order, a stream slot-windowed recorders such as
// obs.Windows cannot consume). Recorders implementing obs.Flusher are
// flushed when their job's run completes, and a flush error fails the
// sweep. To multiplex jobs into one file, give each job's sink a
// distinguishing label over a shared NewSyncWriter-wrapped writer:
//
//	shared := obs.NewSyncWriter(f)
//	sw.Observe(func(p lowsensing.Point, rep int) lowsensing.Recorder {
//	    sink := obs.NewNDJSON(shared)
//	    sink.SetRun(fmt.Sprintf("%s/%d", p, rep))
//	    return sink
//	})
func (sw *Sweep) Observe(mk func(p Point, rep int) Recorder) *Sweep {
	sw.observe = mk
	return sw
}

// Point is one cell of a sweep's parameter grid.
type Point struct {
	// Index is the point's position in row-major grid order (the first
	// axis varies slowest).
	Index int
	// Labels holds one "axis=value" label per axis.
	Labels []string
	// Scenario is the fully applied scenario for this point. Its Seed is
	// the base scenario's; execution overrides it per replication.
	Scenario Scenario
}

// String joins the point's labels, e.g. "rate=0.1 protocol=beb".
func (p Point) String() string { return strings.Join(p.Labels, " ") }

// Points enumerates the sweep's grid in row-major order (first axis
// outermost). A sweep with no axes has exactly one point: the base
// scenario. Each call returns a fresh slice with deep-copied scenarios, so
// callers may modify the scenarios freely.
func (sw *Sweep) Points() []Point {
	pts := slices.Clone(sw.points)
	for i := range pts {
		pts[i].Scenario = pts[i].Scenario.clone()
	}
	return pts
}

// PointResult aggregates every replication at one sweep point. All
// aggregates are streaming — totals, Welford scalars, and merged Tally
// accumulators with log-histogram quantiles — so a PointResult costs the
// same memory whether the point simulated a thousand packets or a billion.
type PointResult struct {
	Point Point
	// Reps is the number of replications aggregated.
	Reps int
	// Truncated counts replications that hit MaxSlots with packets left.
	Truncated int
	// Arrived, Completed, Abandoned, ActiveSlots, and JammedSlots are
	// summed across replications.
	Arrived, Completed, Abandoned, ActiveSlots, JammedSlots int64
	// Faults sums the per-replication fault-injection counters.
	Faults FaultStats
	// Energy merges every replication's streaming accumulators; quantiles
	// (Energy.Accesses.Quantile(0.99), ...) are over the pooled packets of
	// all replications.
	Energy EnergyStats
	// Throughput summarizes the per-replication overall throughput
	// (T+J)/S. Latency summarizes the per-replication mean latency of
	// delivered packets; replications that delivered nothing contribute no
	// observation, so Latency.N() can be smaller than Reps.
	Throughput Welford
	Latency    Welford
}

// DeliveredFrac returns the fraction of arrived packets delivered, pooled
// across replications (1 if nothing arrived).
func (pr PointResult) DeliveredFrac() float64 {
	if pr.Arrived == 0 {
		return 1
	}
	return float64(pr.Completed) / float64(pr.Arrived)
}

// fold accumulates one replication's result, read in place from the
// runner's slot.
func (pr *PointResult) fold(r *Result) {
	pr.Reps++
	if r.Truncated {
		pr.Truncated++
	}
	pr.Arrived += r.Arrived
	pr.Completed += r.Completed
	pr.Abandoned += r.Abandoned
	pr.ActiveSlots += r.ActiveSlots
	pr.JammedSlots += r.JammedSlots
	pr.Faults.Merge(r.Faults)
	pr.Energy.Merge(&r.Energy)
	pr.Throughput.Add(r.Throughput())
	if r.Energy.Latency.Count > 0 {
		pr.Latency.Add(r.Energy.Latency.Mean())
	}
}

// Run executes the sweep and returns one aggregate per point, in grid
// order.
func (sw *Sweep) Run() ([]PointResult, error) {
	out := make([]PointResult, 0)
	if err := sw.Stream(func(pr PointResult) error {
		out = append(out, pr)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Stream executes the sweep and delivers each point's aggregate to emit in
// grid order, as soon as its last replication finishes. Replication
// results are folded into the aggregate and discarded as they are
// delivered; results completed out of grid order wait in the runner's
// reorder window, which holds at most a small constant times Workers
// results whatever the job durations: a job that outlasts the rest stalls
// new jobs instead of letting finished results pile up, so the footprint
// is O(workers), never O(points·reps). An error from a job or from emit
// cancels the sweep; after a job error, emit has seen exactly the points
// before the failing job's, whatever the scheduling.
func (sw *Sweep) Stream(emit func(PointResult) error) error {
	if sw.workers < 0 {
		return fmt.Errorf("lowsensing: sweep workers must be >= 0, got %d", sw.workers)
	}
	points := sw.Points()
	jobs := sw.jobs(points)
	startAll := time.Now() //lsbvet:wallclock progress/ETA reporting only
	var acc PointResult
	return runner.Stream(runner.New(sw.workers), jobs, func(i int, tr *timedResult) error {
		pi := i / sw.reps
		if i%sw.reps == 0 {
			acc = PointResult{Point: points[pi]}
		}
		acc.fold(&tr.r)
		if sw.progress != nil {
			// Delivery is in grid order, so job i is the (i+1)-th done; the
			// ETA extrapolates the mean completed-job rate over the jobs
			// still owed. Both are exact under any Workers setting because
			// this fold is the single point every result passes through.
			done := i + 1
			elapsed := time.Since(startAll) //lsbvet:wallclock progress/ETA reporting only
			eta := time.Duration(float64(elapsed) / float64(done) * float64(len(jobs)-done))
			sw.progress(SweepProgress{
				Done:    done,
				Total:   len(jobs),
				Point:   points[pi],
				Rep:     i % sw.reps,
				Wall:    tr.wall,
				Elapsed: elapsed,
				Events:  tr.r.EngineStats.EventsScheduled,
				ETA:     eta,
			})
		}
		if i%sw.reps == sw.reps-1 {
			return emit(acc)
		}
		return nil
	})
}

// jobs builds the sweep's runner jobs, one per (point, replication) in
// grid order. Each job runs its simulation straight into the runner slot
// it is handed, so its Result is written once, where the fold reads it.
func (sw *Sweep) jobs(points []Point) []runner.Job[timedResult] {
	jobs := make([]runner.Job[timedResult], 0, len(points)*sw.reps)
	for pi := range points {
		sc := points[pi].Scenario
		point := points[pi]
		for rep := 0; rep < sw.reps; rep++ {
			sc := sc
			rep := rep
			jobs = append(jobs, runner.Job[timedResult]{
				Seed: runner.DeriveSeed(sw.seed, sw.id, pi, rep),
				Run: func(seed uint64, out *timedResult) error {
					start := time.Now() //lsbvet:wallclock per-job wall time is reported, never folded into results
					sc.Seed = seed
					var rec Recorder
					if sw.observe != nil {
						rec = sw.observe(point, rep)
					}
					err := sc.Simulation(WithRecorder(rec)).runInto(&out.r)
					if err == nil {
						// A recorder holding buffered or partial state (a
						// sink, a windowed accumulator) is flushed once, as
						// part of the job, on the worker.
						err = obs.Flush(rec)
					}
					out.wall = time.Since(start) //lsbvet:wallclock per-job wall time is reported, never folded into results
					return err
				},
			})
		}
	}
	return jobs
}

// timedResult pairs a job's Result with its wall-clock run time, measured
// on the worker, so progress reports cost nothing when unused.
type timedResult struct {
	r    Result
	wall time.Duration
}

// SweepSpec is the definition of a Sweep, and serializable, so whole
// experiments — not just single runs — can live in JSON files. Each axis
// is a list of variants; a variant is a JSON merge patch applied to the
// base scenario (e.g. {"arrivals": {"rate": 0.2}} or {"protocol":
// {"kind": "beb"}}), so any Scenario field can be swept without code —
// "channels" and "router" included, which is how a sweep runs clusters.
type SweepSpec struct {
	// ID domain-separates seed derivation: two sweeps with different IDs
	// draw independent randomness from the same seed (default "sweep").
	ID string `json:"id,omitempty"`
	// Seed is the base seed (default: the base scenario's seed).
	Seed uint64 `json:"seed,omitempty"`
	// Reps is the replication count per point (0 means 1).
	Reps int `json:"reps,omitempty"`
	// Base is the scenario every point starts from.
	Base Scenario `json:"base"`
	// Axes are applied outermost first.
	Axes []AxisSpec `json:"axes,omitempty"`
}

// AxisSpec is one serializable sweep axis.
type AxisSpec struct {
	Name     string    `json:"name"`
	Variants []Variant `json:"variants"`
}

// Variant is one value of an axis: a label plus a JSON merge patch over
// the base scenario.
type Variant struct {
	Label string          `json:"label,omitempty"`
	Patch json.RawMessage `json:"patch,omitempty"`
}

// ParseSweepSpec decodes a JSON sweep spec strictly (unknown fields are
// errors). Semantic validation — patch shapes and every grid point's
// scenario — happens once, in Sweep, so parse-then-build costs a single
// validation pass.
func ParseSweepSpec(data []byte) (SweepSpec, error) {
	var ss SweepSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ss); err != nil {
		return SweepSpec{}, fmt.Errorf("lowsensing: parsing sweep spec: %w", err)
	}
	return ss, nil
}

// Sweep builds the executable sweep. Variant labels default to the
// variant's index; labels must be unique within an axis and axis names
// unique within the spec, so every point has its own name. Each grid
// point is patched once, strictly (unknown fields are errors), and
// validated once, up front, so a nil error means Run cannot fail on a
// malformed spec.
func (ss SweepSpec) Sweep() (*Sweep, error) {
	sw := &Sweep{id: ss.ID, seed: ss.Seed, reps: ss.Reps}
	if sw.id == "" {
		sw.id = "sweep"
	}
	if sw.seed == 0 {
		sw.seed = ss.Base.Seed
	}
	if sw.reps == 0 {
		sw.reps = 1
	}
	if sw.reps < 1 {
		return nil, fmt.Errorf("lowsensing: sweep reps must be >= 1, got %d", ss.Reps)
	}
	total := 1
	labels := make([][]string, len(ss.Axes))
	for ai, ax := range ss.Axes {
		if ax.Name == "" {
			return nil, fmt.Errorf("lowsensing: sweep axis %d needs a name", ai)
		}
		if len(ax.Variants) == 0 {
			return nil, fmt.Errorf("lowsensing: sweep axis %q has no values", ax.Name)
		}
		for _, prev := range ss.Axes[:ai] {
			if prev.Name == ax.Name {
				return nil, fmt.Errorf("lowsensing: sweep axis %q appears twice", ax.Name)
			}
		}
		labels[ai] = make([]string, len(ax.Variants))
		for vi, v := range ax.Variants {
			label := v.Label
			if label == "" {
				label = strconv.Itoa(vi)
			}
			if slices.Contains(labels[ai][:vi], label) {
				return nil, fmt.Errorf("lowsensing: sweep axis %q has two variants labelled %q", ax.Name, label)
			}
			labels[ai][vi] = label
		}
		total *= len(ax.Variants)
	}
	sw.points = make([]Point, total)
	for idx := range sw.points {
		// Deep-copy the base so patches — in particular merges into the
		// specs' Params maps — stay local to this point.
		sc := ss.Base.clone()
		pl := make([]string, len(ss.Axes))
		rem, stride := idx, total
		for ai, ax := range ss.Axes {
			stride /= len(ax.Variants)
			vi := rem / stride
			rem %= stride
			if patch := ax.Variants[vi].Patch; len(patch) > 0 {
				if err := strictPatch(&sc, patch); err != nil {
					return nil, fmt.Errorf("lowsensing: sweep axis %q variant %q: %w", ax.Name, labels[ai][vi], err)
				}
			}
			pl[ai] = ax.Name + "=" + labels[ai][vi]
		}
		p := Point{Index: idx, Labels: pl, Scenario: sc}
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("lowsensing: sweep point %q: %w", p, err)
		}
		sw.points[idx] = p
	}
	return sw, nil
}

// strictPatch merge-patches a scenario in place from JSON, rejecting
// unknown fields.
func strictPatch(sc *Scenario, patch json.RawMessage) error {
	dec := json.NewDecoder(bytes.NewReader(patch))
	dec.DisallowUnknownFields()
	return dec.Decode(sc)
}
