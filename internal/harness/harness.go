package harness

import (
	"fmt"
	"sort"

	"lowsensing"
	"lowsensing/internal/runner"
	"lowsensing/internal/sim"
	"lowsensing/internal/stats"
	"lowsensing/obs"
)

// Scale selects how large the experiment sweeps are. Tests and benchmarks
// use ScaleSmall; cmd/experiments regenerates EXPERIMENTS.md at ScaleFull.
type Scale int

// Experiment scales.
const (
	// ScaleSmall shrinks sweeps so every experiment finishes in seconds.
	ScaleSmall Scale = iota + 1
	// ScaleFull is the sweep recorded in EXPERIMENTS.md.
	ScaleFull
)

// RunConfig parameterizes one experiment invocation.
type RunConfig struct {
	Seed  uint64
	Reps  int
	Scale Scale
	// Workers bounds how many simulations run concurrently; 0 means one
	// worker per usable CPU. Tables are byte-identical for every value:
	// each job's seed is derived from its sweep coordinates, results are
	// collected in job order, and reduction is single-threaded.
	Workers int
}

// DefaultRunConfig returns the configuration used by cmd/experiments.
func DefaultRunConfig() RunConfig {
	return RunConfig{Seed: 20240617, Reps: 5, Scale: ScaleFull}
}

// SmallRunConfig returns a fast configuration for tests and benchmarks.
func SmallRunConfig() RunConfig {
	return RunConfig{Seed: 20240617, Reps: 2, Scale: ScaleSmall}
}

// Validate checks a RunConfig.
func (rc RunConfig) Validate() error {
	if rc.Reps < 1 {
		return fmt.Errorf("harness: Reps must be >= 1, got %d", rc.Reps)
	}
	if rc.Scale != ScaleSmall && rc.Scale != ScaleFull {
		return fmt.Errorf("harness: unknown scale %d", rc.Scale)
	}
	if rc.Workers < 0 {
		return fmt.Errorf("harness: Workers must be >= 0, got %d", rc.Workers)
	}
	return nil
}

// pool returns the worker pool the experiment's sweeps run on.
func (rc RunConfig) pool() *runner.Pool { return runner.New(rc.Workers) }

// Experiment is one reproducible table/figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Run   func(rc RunConfig) (*Table, error)
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every registered experiment in ID order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ids())
	}
	return e, nil
}

func ids() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// run executes one simulation through the public lowsensing API: sc with
// the given seed, plus the instance options (custom components, recorders)
// a Scenario cannot hold as data. Every engine an experiment drives is
// built by the exact code path library users call, so the tables double as
// an end-to-end regression suite for the public surface.
func run(seed uint64, sc lowsensing.Scenario, opts ...lowsensing.Option) (sim.Result, error) {
	sc.Seed = seed
	return sc.Simulation(opts...).Run()
}

// sweep runs body for every (point, rep) pair of a points×Reps grid as one
// batch of runner jobs and returns the measurements grouped by point, reps
// in order. Each job's seed is runner.DeriveSeed(rc.Seed, expID, point,
// rep), so the grouped results — and therefore every table built from them
// — are a pure function of the RunConfig, whatever rc.Workers is. Every
// result is kept, so the jobs run through runner.Run: a slow job never holds
// back the claims behind it, as Stream's bounded reorder window would.
func sweep[T any](rc RunConfig, expID string, points int, body func(point, rep int, seed uint64) (T, error)) ([][]T, error) {
	jobs := make([]runner.Job[T], 0, points*rc.Reps)
	for point := 0; point < points; point++ {
		for rep := 0; rep < rc.Reps; rep++ {
			point, rep := point, rep
			jobs = append(jobs, runner.Job[T]{
				Seed: runner.DeriveSeed(rc.Seed, expID, point, rep),
				Run: func(seed uint64, out *T) (err error) {
					*out, err = body(point, rep, seed)
					return err
				},
			})
		}
	}
	rs, err := runner.Run(rc.pool(), jobs)
	if err != nil {
		return nil, err
	}
	out := make([][]T, points)
	for point := range out {
		out[point] = rs[point*rc.Reps : (point+1)*rc.Reps : (point+1)*rc.Reps]
	}
	return out, nil
}

// one submits a single simulation as a runner job and returns its result;
// used by the trajectory/trace experiments whose claims are about a single
// evolving execution rather than a replicated sweep.
func one(rc RunConfig, expID string, sc lowsensing.Scenario, opts ...lowsensing.Option) (sim.Result, error) {
	rc.Reps = 1
	rs, err := sweep(rc, expID, 1, func(_, _ int, seed uint64) (sim.Result, error) {
		return run(seed, sc, opts...)
	})
	if err != nil {
		return sim.Result{}, err
	}
	return rs[0][0], nil
}

// latencySink returns a packet recorder that appends every delivered
// packet's latency to *dst — the standard way experiments observe latencies
// without retaining per-packet tables.
func latencySink(dst *[]float64) obs.PacketFunc {
	return func(p obs.PacketEvent) {
		if lat := p.Latency(); lat >= 0 {
			*dst = append(*dst, float64(lat))
		}
	}
}

// repMean folds one extracted field of a point's replications into a
// stats.Welford accumulator and returns its mean.
func repMean[T any](reps []T, get func(T) float64) float64 {
	var w stats.Welford
	for _, r := range reps {
		w.Add(get(r))
	}
	return w.Mean()
}

// repMax is repMean's max-reduction counterpart.
func repMax[T any](reps []T, get func(T) float64) float64 {
	var w stats.Welford
	for _, r := range reps {
		w.Add(get(r))
	}
	return w.Max()
}

// pick returns small for ScaleSmall and full otherwise.
func pick[T any](rc RunConfig, small, full T) T {
	if rc.Scale == ScaleSmall {
		return small
	}
	return full
}
