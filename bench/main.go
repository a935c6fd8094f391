// Command bench is the repository's end-to-end benchmark. It runs five
// workloads, from the paper's experiment registry to the epoch-sharded
// cluster, each through the public functions the CLIs call, checks every
// output, and prints end-to-end metrics (untraced) or per-layer metrics
// measured from outside the program (-trace 1). BENCHMARK.json at the
// repository root lists the workloads, metrics, units and bounds; see
// bench/README.md for what each one is for.
//
//	go run -C bench .                               # all workloads, untraced
//	go run -C bench . -trace 1                      # all workloads, traced
//	go run -C bench . -workload stream-lsb -seed 7  # one workload
//	go run -C bench . -out a.json                   # append samples to a.json
//	go run -C bench . -compare a.json b.json        # compare two -out files
//
// Every workload runs in a child process of its own (the command
// re-executes itself), so its peak RSS and garbage-collector state are its
// own. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is nonzero when
// any output check failed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"syscall"

	"lowsensing/internal/harness"
)

// defaultSeed is the seed the recorded outputs (harness goldens and
// testdata/digests.json) were made with.
const defaultSeed = 20240617

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	compare  bool
	child    bool
	workers  int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed of every workload input; overrides every spec seed")
	fs.Float64Var(&o.seconds, "seconds", 8, "measuring time per workload, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	fs.StringVar(&o.out, "out", "", "append this run's samples to `file` as one JSON line")
	fs.BoolVar(&o.compare, "compare", false, "compare the two -out files named as arguments")
	fs.BoolVar(&o.child, "child", false, "measure one workload in this process (used by the command itself)")
	fs.IntVar(&o.workers, "workers", 0, "worker count of a -child process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two files")
			return 2
		}
		return compare(root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || (o.trace != 0 && o.trace != 1) || !(o.seconds > 0) {
		fmt.Fprintln(stderr, "bench: want -trace 0 or 1, -seconds > 0, and no arguments")
		return 2
	}
	if o.child {
		return runChild(root, o, stdout, stderr)
	}
	return runParent(root, o, stdout, stderr)
}

// findRoot locates the repository root from the directory the command
// runs in: the root itself, or bench/ under it (go run -C bench, go test).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if fi, err := os.Stat(filepath.Join(dir, "bench", "workloads")); err == nil && fi.IsDir() {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root or from bench/")
}

func runChild(root string, o options, stdout, stderr io.Writer) int {
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	inst, err := load(root, w, o.seed, o.trace == 1, o.workers)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg := childConfig{seconds: o.seconds, workers: o.workers, traced: o.trace == 1}
	if o.seed == defaultSeed {
		if cfg.want, err = recordedDigests(root, w); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if cfg.traced {
		cfg.spans = filepath.Join(spansDir(root), w.name+".ndjson")
	}
	if err := json.NewEncoder(stdout).Encode(measure(w.name, inst, cfg)); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// load builds a workload's instance: the spec file with the seed applied
// (and, traced, its kinds renamed to the traced ones).
func load(root string, w workload, seed uint64, traced bool, workers int) (instance, error) {
	var spec []byte
	if w.spec != "" {
		raw, err := os.ReadFile(filepath.Join(root, "bench", "workloads", w.spec))
		if err != nil {
			return nil, err
		}
		if spec, err = prepareSpec(raw, seed, traced); err != nil {
			return nil, fmt.Errorf("%s: %w", w.spec, err)
		}
	}
	return w.build(spec, seed, workers), nil
}

// spansDir is where the traced run writes each workload's spans, as
// <workload>.ndjson: beside the build output, which version control ignores.
func spansDir(root string) string { return filepath.Join(root, ".bench_build", "spans") }

// recordedDigests returns the output digests the default seed must
// reproduce: the harness goldens for registry-small, and
// testdata/digests.json for the others.
func recordedDigests(root string, w workload) (map[string]string, error) {
	want := map[string]string{}
	if w.spec == "" {
		dir := filepath.Join(root, "internal", "harness", "testdata", "small")
		for _, e := range harness.All() {
			txt, err := os.ReadFile(filepath.Join(dir, e.ID+".txt"))
			if err != nil {
				return nil, err
			}
			csv, err := os.ReadFile(filepath.Join(dir, e.ID+".csv"))
			if err != nil {
				return nil, err
			}
			want[e.ID] = tableDigest(string(txt), string(csv))
		}
		return want, nil
	}
	data, err := os.ReadFile(filepath.Join(root, "bench", "testdata", "digests.json"))
	if err != nil {
		return nil, err
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if all[w.name] == nil {
		return nil, fmt.Errorf("digests.json has no entry for %s", w.name)
	}
	return all[w.name], nil
}

// wlResult is one workload's combined result, as -out records it.
type wlResult struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []series `json:"metrics"`
}

// series is one metric: its value (the median of the samples, where there
// are several) and the samples.
type series struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples,omitempty"`
}

func (r *wlResult) metric(name string) (series, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return series{}, false
}

func runParent(root string, o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, err := readBenchmarkJSON(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sel := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sel = []workload{w}
	}
	if o.trace == 1 {
		if err := os.MkdirAll(spansDir(root), 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	workers := min(2, runtime.NumCPU())
	fmt.Fprintf(stdout, "bench: seed %d, %g s per workload, %d workers, trace %d\n", o.seed, o.seconds, workers, o.trace)
	var results []wlResult
	for _, w := range sel {
		res := runWorkload(exe, w, o, workers, stderr)
		printResult(stdout, w, res)
		results = append(results, res)
	}
	if o.out != "" {
		if err := appendRun(o.out, o, workers, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	names := spec.endToEndNames()
	if o.trace == 1 {
		names = spec.perLayerNames()
	}
	line := summarize(results, names)
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// runWorkload measures one workload in child processes. The untraced
// child gives the end-to-end metrics and the counts; a traced run adds a
// traced child, whose digests must equal the untraced ones, and for
// workloads that parallelize inside one run, a 1-worker child for the
// speedup. The children share the time budget.
func runWorkload(exe string, w workload, o options, workers int, stderr io.Writer) wlResult {
	res := wlResult{Name: w.name}
	children := 1
	if o.trace == 1 {
		children = 2
		if w.speedup {
			children = 3
		}
	}
	budget := o.seconds / float64(children)
	fail := func(err error) wlResult {
		res.Errors = append(res.Errors, err.Error())
		res.Failed = max(res.Failed, 1)
		res.Attempted = max(res.Attempted, 1)
		return res
	}
	untraced, err := spawn(exe, w, o, budget, workers, false, stderr)
	if err != nil {
		return fail(err)
	}
	res.add(untraced)
	pass := untraced.PassS
	res.Metrics = append(res.Metrics,
		sampled("pass_s", "s", pass),
		sampled("setup_s", "s", untraced.SetupS))
	if untraced.Events > 0 {
		ns := make([]float64, len(pass))
		for i, p := range pass {
			ns[i] = p * 1e9 / float64(untraced.Events)
		}
		res.Metrics = append(res.Metrics, sampled("ns_per_event", "ns", ns))
	}
	res.Metrics = append(res.Metrics,
		sampled("peak_rss_mb", "MB", untraced.PeakRSSMB),
		series{Name: "error_rate", Unit: "ratio", Value: float64(untraced.Failed) / float64(max(untraced.Attempted, 1))})
	for _, m := range untraced.Layers {
		res.Metrics = append(res.Metrics, series{Name: m.Name, Unit: m.Unit, Value: m.Value})
	}
	if o.trace == 1 {
		traced, err := spawn(exe, w, o, budget, workers, true, stderr)
		if err != nil {
			return fail(err)
		}
		res.add(traced)
		if traced.Digest != untraced.Digest {
			res.Failed += traced.Attempted
			res.Errors = append(res.Errors, "traced outputs differ from untraced outputs")
		}
		for _, m := range traced.Layers {
			res.Metrics = append(res.Metrics, series{Name: m.Name, Unit: m.Unit, Value: m.Value})
		}
		_, tmed, _ := quartiles(traced.PassS)
		_, umed, _ := quartiles(pass)
		res.Metrics = append(res.Metrics, series{Name: "trace.overhead", Unit: "ratio", Value: ratio(tmed, umed) - 1})
		if w.speedup {
			one, err := spawn(exe, w, o, budget, 1, false, stderr)
			if err != nil {
				return fail(err)
			}
			res.add(one)
			if one.Digest != untraced.Digest {
				res.Failed += one.Attempted
				res.Errors = append(res.Errors, "1-worker outputs differ from 2-worker outputs")
			}
			_, omed, _ := quartiles(one.PassS)
			res.Metrics = append(res.Metrics, series{Name: "cluster.speedup_w2", Unit: "ratio", Value: ratio(omed, umed)})
		}
	}
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	return res
}

func (r *wlResult) add(c childReport) {
	r.Attempted += c.Attempted
	r.Failed += c.Failed
	r.Errors = append(r.Errors, c.Errors...)
}

func sampled(name, unit string, xs []float64) series {
	_, med, _ := quartiles(xs)
	return series{Name: name, Unit: unit, Value: med, Samples: xs}
}

// spawn runs one child process and decodes its report.
func spawn(exe string, w workload, o options, seconds float64, workers int, traced bool, stderr io.Writer) (childReport, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child",
		"-workload", w.name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", trace,
		"-workers", strconv.Itoa(workers))
	cmd.Stderr = stderr
	dieWithParent(cmd)
	out, err := cmd.Output()
	if err != nil {
		return childReport{}, fmt.Errorf("%s child: %w", w.name, err)
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return childReport{}, fmt.Errorf("%s child report: %w", w.name, err)
	}
	return rep, nil
}

// dieWithParent has the kernel kill cmd's process when the process that
// started it ends, so a benchmark stopped from outside leaves no child
// running. Only Linux offers this (SysProcAttr.Pdeathsig); the field is set
// by name so that the command still builds elsewhere.
func dieWithParent(cmd *exec.Cmd) {
	attr := &syscall.SysProcAttr{}
	if f := reflect.ValueOf(attr).Elem().FieldByName("Pdeathsig"); f.IsValid() {
		f.Set(reflect.ValueOf(syscall.SIGKILL))
	}
	cmd.SysProcAttr = attr
}

func printResult(w io.Writer, wl workload, r wlResult) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", r.Name, wl.why)
	fmt.Fprintf(w, "  %-32s %14s  %-5s %4s %14s %14s\n", "metric", "median", "unit", "n", "q1", "q3")
	for _, m := range r.Metrics {
		if len(m.Samples) > 0 {
			q1, _, q3 := quartiles(m.Samples)
			fmt.Fprintf(w, "  %-32s %14.6g  %-5s %4d %14.6g %14.6g\n", m.Name, m.Value, m.Unit, len(m.Samples), q1, q3)
		} else {
			fmt.Fprintf(w, "  %-32s %14.6g  %-5s %4d\n", m.Name, m.Value, m.Unit, 1)
		}
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAIL: %s\n", e)
	}
}

// appendRun appends one JSON line holding this run's results to path.
func appendRun(path string, o options, workers int, results []wlResult) error {
	line, err := json.Marshal(struct {
		Seed      uint64     `json:"seed"`
		Seconds   float64    `json:"seconds"`
		Trace     int        `json:"trace"`
		Workers   int        `json:"workers"`
		Workloads []wlResult `json:"workloads"`
	}{o.seed, o.seconds, o.trace, workers, results})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize builds the result line from the named metrics. With one
// workload the keys are the metric names; with several they are
// "<workload>/<metric>". A named metric a workload did not produce makes
// the line incorrect.
func summarize(results []wlResult, names []string) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]lineValue{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, name := range names {
			m, ok := r.metric(name)
			if !ok {
				line.Correct = false
				continue
			}
			key := name
			if len(results) > 1 {
				key = r.Name + "/" + name
			}
			line.Metrics[key] = lineValue{Value: m.Value, Unit: m.Unit}
		}
	}
	return line
}

// benchmarkJSON is the part of BENCHMARK.json the command reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(root string) (benchmarkJSON, error) {
	var b benchmarkJSON
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&b); err != nil {
		return b, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b, nil
}

func (b benchmarkJSON) endToEndNames() []string {
	var names []string
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
	}
	return names
}

func (b benchmarkJSON) perLayerNames() []string {
	var names []string
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
	}
	return names
}

// bound returns BENCHMARK.json's bound for an end-to-end metric.
// ns_per_event shares pass_s's bound; error_rate may not grow at all.
func (b benchmarkJSON) bound(name string) (float64, bool) {
	if name == "ns_per_event" {
		name = "pass_s"
	}
	if name == "error_rate" {
		return 0, true
	}
	for _, m := range b.EndToEnd {
		if m.Name == name {
			return m.Bound, true
		}
	}
	return 0, false
}
