package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"maps"
	"math"
	"slices"
	"time"

	"lowsensing"
	"lowsensing/internal/harness"
	"lowsensing/internal/sim"
	"lowsensing/internal/stats"
)

// A workload is one end-to-end input of the benchmark. Each drives its
// layers only through the public functions the CLIs call, and each pass
// repeats the CLI's whole job: parse, validate and build the spec (setup),
// then run it.
type workload struct {
	name string
	// why records what the workload stresses and which changes it is
	// meant to expose; it is printed with the results.
	why string
	// spec names the input under bench/workloads; registry-small has none.
	spec string
	// speedup marks workloads that parallelize inside one run; their
	// traced measurement adds a 1-worker child for cluster.speedup_w2.
	speedup bool
	// build makes an instance from the spec bytes (seed already applied),
	// the seed, and the worker count.
	build func(spec []byte, seed uint64, workers int) instance
}

var workloads = []workload{
	{
		name: "registry-small",
		why:  "every harness experiment at small scale, what cmd/experiments -scale small runs; protocol arithmetic dominates",
		build: func(_ []byte, seed uint64, workers int) instance {
			return &registryRun{seed: seed, workers: workers}
		},
	},
	{
		name:  "sweep-grid",
		why:   "5,120 tiny sweep jobs; per-job fixed cost dominates and the core arithmetic is a small share",
		spec:  "sweep-grid.json",
		build: func(spec []byte, _ uint64, workers int) instance { return &sweepRun{spec: spec, workers: workers} },
	},
	{
		name:  "stream-lsb",
		why:   "500k-packet LSB stream under jamming; tiny live set, the batch fast path resolves many slots",
		spec:  "stream-lsb.json",
		build: func(spec []byte, _ uint64, _ int) instance { return &scenarioRun{spec: spec} },
	},
	{
		name:  "batch-lsb-8k",
		why:   "8,192-packet LSB batch; large live set stresses the timing wheel and bypasses the batch path",
		spec:  "batch-lsb-8k.json",
		build: func(spec []byte, _ uint64, _ int) instance { return &scenarioRun{spec: spec} },
	},
	{
		name:    "cluster-leastbacklog",
		why:     "16-channel cluster with the leastbacklog router; the epoch executor takes one barrier per arrival slot",
		spec:    "cluster-leastbacklog.json",
		speedup: true,
		build:   func(spec []byte, _ uint64, workers int) instance { return &clusterRun{spec: spec, workers: workers} },
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// instance is one workload built for a seed. A pass calls setup, then run.
type instance interface {
	// setup parses, validates and builds the spec: the part of the pass
	// reported as setup_s.
	setup(tr *tracer) error
	// run executes the built spec once.
	run(tr *tracer) (passOut, error)
}

// passOut is what one pass produced.
type passOut struct {
	// units are the checked outputs, in a fixed order: experiment tables,
	// sweep points, or the single run.
	units []unit
	// ops counts the operations attempted (experiments, sweep jobs, runs);
	// failed counts those whose Result broke conservation.
	ops, failed int
	// engine sums Result.EngineStats and active sums Result.ActiveSlots
	// over the pass's runs; both stay zero where the layer keeps its
	// Results internal.
	engine sim.EngineStats
	active int64
	// events sums EngineStats.EventsScheduled (for sweeps it comes from
	// SweepProgress, the only place a sweep exposes it).
	events int64
	// jobWalls holds every sweep job's own wall time.
	jobWalls []time.Duration
}

// unit is one checked output: a name and the digest of its content.
type unit struct {
	name, digest string
	ops          int
}

// registryRun is registry-small: harness.All() at SmallRunConfig.
type registryRun struct {
	seed    uint64
	workers int
	// only restricts the registry to these experiment IDs (tests); nil
	// runs all.
	only []string
	exps []harness.Experiment
	rc   harness.RunConfig
}

func (r *registryRun) setup(*tracer) error {
	r.exps = r.exps[:0]
	for _, e := range harness.All() {
		if r.only == nil || slices.Contains(r.only, e.ID) {
			r.exps = append(r.exps, e)
		}
	}
	r.rc = harness.SmallRunConfig()
	r.rc.Seed = r.seed
	r.rc.Workers = r.workers
	return r.rc.Validate()
}

func (r *registryRun) run(tr *tracer) (passOut, error) {
	var out passOut
	for _, e := range r.exps {
		sp := tr.begin("exp " + e.ID)
		tab, err := e.Run(r.rc)
		tr.end(sp)
		if err != nil {
			return passOut{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		sp = tr.begin("render " + e.ID)
		txt, csv := tab.String(), tab.CSV()
		tr.end(sp)
		out.units = append(out.units, unit{name: e.ID, digest: tableDigest(txt, csv), ops: 1})
		out.ops++
	}
	return out, nil
}

// tableDigest digests one experiment's rendered outputs, exactly as
// cmd/experiments writes them to <ID>.txt and <ID>.csv.
func tableDigest(txt, csv string) string {
	h := sha256.New()
	h.Write([]byte(txt))
	h.Write([]byte{0})
	h.Write([]byte(csv))
	return hex.EncodeToString(h.Sum(nil))
}

// sweepRun is sweep-grid: a SweepSpec streamed through Sweep().Stream.
type sweepRun struct {
	spec    []byte
	workers int
	ss      lowsensing.SweepSpec
	sw      *lowsensing.Sweep
}

func (s *sweepRun) setup(tr *tracer) error {
	sp := tr.begin("parse")
	ss, err := lowsensing.ParseSweepSpec(s.spec)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("validate")
	sw, err := ss.Sweep()
	tr.end(sp)
	if err != nil {
		return err
	}
	s.ss, s.sw = ss, sw.Workers(s.workers)
	return nil
}

func (s *sweepRun) run(tr *tracer) (passOut, error) {
	var out passOut
	reps := max(s.ss.Reps, 1)
	parent := tr.begin("sweep")
	tr.attach(parent)
	// Job spans: the Observe hook runs on the worker right where the job's
	// own wall clock starts, and returning nil attaches no recorder, so the
	// engine runs exactly as untraced. Each job writes only its own slot.
	var starts []int64
	if tr != nil {
		starts = make([]int64, len(s.sw.Points())*reps)
		s.sw.Observe(func(p lowsensing.Point, rep int) lowsensing.Recorder {
			starts[p.Index*reps+rep] = tr.now()
			return nil
		})
	}
	s.sw.Progress(func(p lowsensing.SweepProgress) {
		t0 := tr.now()
		out.jobWalls = append(out.jobWalls, p.Wall)
		out.events += p.Events
		tr.fold(t0)
		if tr != nil {
			i := p.Point.Index*reps + p.Rep
			tr.record(parent, fmt.Sprintf("job %d/%d", p.Point.Index, p.Rep), starts[i], starts[i]+p.Wall.Nanoseconds())
		}
	})
	err := s.sw.Stream(func(pr lowsensing.PointResult) error {
		t0 := tr.now()
		out.ops += pr.Reps
		if pr.Arrived != pr.Completed+pr.Abandoned+pr.Energy.Undelivered {
			out.failed += pr.Reps
		}
		out.active += pr.ActiveSlots
		out.units = append(out.units, unit{name: pr.Point.String(), digest: pointDigest(&pr), ops: pr.Reps})
		tr.fold(t0)
		return nil
	})
	tr.end(parent)
	return out, err
}

// scenarioRun is a single Scenario (stream-lsb, batch-lsb-8k).
type scenarioRun struct {
	spec []byte
	sc   lowsensing.Scenario
}

func (s *scenarioRun) setup(tr *tracer) error {
	sp := tr.begin("parse+validate")
	sc, err := lowsensing.ParseScenario(s.spec)
	tr.end(sp)
	if err != nil {
		return err
	}
	if tr != nil {
		// ParseScenario validates internally; validating once more, timed
		// alone, splits the setup into its parse and validate parts.
		sp = tr.begin("validate")
		err = sc.Validate()
		tr.end(sp)
	}
	s.sc = sc
	return err
}

func (s *scenarioRun) run(tr *tracer) (passOut, error) {
	sp := tr.begin("run")
	tr.attach(sp)
	res, err := s.sc.Run()
	tr.end(sp)
	if err != nil {
		return passOut{}, err
	}
	return resultOut(res, resultDigest(res)), nil
}

// clusterRun is a ClusterScenario (cluster-leastbacklog).
type clusterRun struct {
	spec    []byte
	workers int
	cs      lowsensing.ClusterScenario
}

func (c *clusterRun) setup(tr *tracer) error {
	sp := tr.begin("parse+validate")
	cs, err := lowsensing.ParseClusterScenario(c.spec)
	tr.end(sp)
	if err != nil {
		return err
	}
	if tr != nil {
		sp = tr.begin("validate")
		err = cs.Validate()
		tr.end(sp)
	}
	cs.Workers = c.workers
	c.cs = cs
	return err
}

func (c *clusterRun) run(tr *tracer) (passOut, error) {
	sp := tr.begin("cluster-run")
	tr.attach(sp)
	cr, err := c.cs.Run()
	tr.end(sp)
	if err != nil {
		return passOut{}, err
	}
	h := sha256.New()
	digestResult(h, cr.Total)
	for _, r := range cr.PerChannel {
		digestResult(h, r)
	}
	for _, n := range cr.Routed {
		putInt(h, n)
	}
	putFloat(h, cr.Fairness)
	out := resultOut(cr.Total, hex.EncodeToString(h.Sum(nil)))
	for _, r := range cr.PerChannel {
		if !conserved(r) {
			out.failed = 1
		}
	}
	return out, nil
}

// resultOut wraps one run's Result as a one-operation pass.
func resultOut(r sim.Result, digest string) passOut {
	out := passOut{
		units:  []unit{{name: "run", digest: digest, ops: 1}},
		ops:    1,
		engine: r.EngineStats,
		active: r.ActiveSlots,
		events: r.EngineStats.EventsScheduled,
	}
	if !conserved(r) {
		out.failed = 1
	}
	return out
}

// conserved checks the accounting identity every Result must satisfy.
func conserved(r sim.Result) bool {
	return r.Arrived == r.Completed+r.Abandoned+r.Energy.Undelivered
}

func resultDigest(r sim.Result) string {
	h := sha256.New()
	digestResult(h, r)
	return hex.EncodeToString(h.Sum(nil))
}

// digestResult hashes the simulated statistics of a Result: every field
// but EngineStats, which describes engine mechanics (wheel cascades, batch
// path use) that may change while the simulation stays bit-identical.
func digestResult(h hash.Hash, r sim.Result) {
	for _, v := range []int64{r.Arrived, r.Completed, r.Abandoned, r.ActiveSlots, r.JammedSlots, r.LastSlot} {
		putInt(h, v)
	}
	putBool(h, r.Truncated)
	digestFaults(h, r.Faults)
	digestEnergy(h, &r.Energy)
	putInt(h, int64(len(r.Classes)))
	for i := range r.Classes {
		c := &r.Classes[i]
		h.Write([]byte(c.Name))
		for _, v := range []int64{c.Arrived, c.Completed, c.Abandoned, c.Survivors} {
			putInt(h, v)
		}
		digestEnergy(h, &c.Energy)
	}
	putFloat(h, r.ClassFairness)
	putInt(h, int64(len(r.Degradation)))
	for _, d := range r.Degradation {
		h.Write([]byte(d.Name))
		for _, v := range []float64{d.DeliveredFrac, d.BaselineDeliveredFrac, d.MeanAccesses, d.BaselineMeanAccesses, d.MeanLatency, d.BaselineMeanLatency} {
			putFloat(h, v)
		}
	}
	putInt(h, int64(len(r.Packets)))
	for _, p := range r.Packets {
		for _, v := range []int64{p.ID, p.Arrival, p.Departure, p.Sends, p.Listens} {
			putInt(h, v)
		}
	}
}

// pointDigest hashes one sweep point's aggregate.
func pointDigest(pr *lowsensing.PointResult) string {
	h := sha256.New()
	h.Write([]byte(pr.Point.String()))
	for _, v := range []int64{int64(pr.Reps), int64(pr.Truncated), pr.Arrived, pr.Completed, pr.Abandoned, pr.ActiveSlots, pr.JammedSlots} {
		putInt(h, v)
	}
	digestFaults(h, pr.Faults)
	digestEnergy(h, &pr.Energy)
	digestWelford(h, &pr.Throughput)
	digestWelford(h, &pr.Latency)
	return hex.EncodeToString(h.Sum(nil))
}

func digestFaults(h hash.Hash, f sim.FaultStats) {
	for _, v := range []int64{f.Corrupted, f.FalseBusy, f.FalseIdle, f.Crashes, f.DownSlots} {
		putInt(h, v)
	}
}

func digestEnergy(h hash.Hash, e *sim.EnergyStats) {
	for _, t := range []*stats.Tally{&e.Sends, &e.Listens, &e.Accesses, &e.Latency} {
		for _, v := range []int64{t.Count, t.Sum, t.MinV, t.MaxV, t.Hist.N()} {
			putInt(h, v)
		}
		putFloat(h, t.SumSq)
		// The histogram's buckets are reachable only through quantiles.
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
			putFloat(h, t.Hist.Quantile(q))
		}
	}
	putInt(h, e.Undelivered)
	putInt(h, e.Abandoned)
}

func digestWelford(h hash.Hash, w *stats.Welford) {
	putInt(h, w.N())
	for _, v := range []float64{w.Mean(), w.Var(), w.Min(), w.Max()} {
		putFloat(h, v)
	}
}

func putInt(h hash.Hash, v int64) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }

func putFloat(h hash.Hash, v float64) { putInt(h, int64(math.Float64bits(v))) }

func putBool(h hash.Hash, v bool) {
	if v {
		putInt(h, 1)
	} else {
		putInt(h, 0)
	}
}

// combinedDigest folds a pass's unit digests into one.
func combinedDigest(units []unit) string {
	h := sha256.New()
	for _, u := range units {
		h.Write([]byte(u.name))
		h.Write([]byte{0})
		h.Write([]byte(u.digest))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// prepareSpec applies the seed to every "seed" field of a spec and, for
// traced runs, renames every protocol, arrivals, jammer and router kind to
// its traced counterpart (see trace.go). Numbers pass through unchanged.
func prepareSpec(raw []byte, seed uint64, traced bool) ([]byte, error) {
	var v any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("decoding spec: %w", err)
	}
	rewriteSpec(v, json.Number(fmt.Sprint(seed)), traced)
	return json.Marshal(v)
}

func rewriteSpec(v any, seed json.Number, traced bool) {
	switch v := v.(type) {
	case map[string]any:
		for _, k := range slices.Sorted(maps.Keys(v)) {
			switch sub := v[k].(type) {
			case json.Number:
				if k == "seed" {
					v[k] = seed
				}
			case map[string]any:
				if kind, ok := sub["kind"].(string); ok && traced && tracedComponent(k) {
					sub["kind"] = tracedKind(kind)
				}
				rewriteSpec(sub, seed, traced)
			default:
				rewriteSpec(sub, seed, traced)
			}
		}
	case []any:
		for _, e := range v {
			rewriteSpec(e, seed, traced)
		}
	}
}

// tracedComponent reports whether a spec field names a component the
// traced run wraps.
func tracedComponent(field string) bool {
	switch field {
	case "protocol", "arrivals", "jammer", "router":
		return true
	}
	return false
}
