// Command experiments regenerates the reproduction's tables. By default
// it runs every registered experiment at full scale and prints ASCII
// tables to stdout; -outdir also writes one .txt and one .csv per
// experiment.
//
// With -spec it runs a declarative sweep instead: a JSON
// lowsensing.SweepSpec, whose base scenario and axes say everything about
// the runs (churn and faults included). Every point is aggregated with
// streaming statistics; -seed and -reps, when set, override the file's.
//
// Examples:
//
//	experiments                       # everything, full scale, all cores
//	experiments -list                 # experiment IDs with descriptions
//	experiments -kinds                # registered protocol/arrival/jammer/router/churn/fault kinds
//	experiments -id E1,E2 -scale small
//	experiments -parallel 1           # serial; output identical to parallel
//	experiments -outdir results/
//	experiments -spec sweep.json      # run a declarative sweep spec
//	experiments -spec sweep.json -progress -trace t.ndjson -metrics m.ndjson
//	experiments -id E1 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lowsensing"
	"lowsensing/internal/harness"
	"lowsensing/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args and executes the requested experiments or sweep spec,
// writing tables to out and progress to os.Stderr. Split from main so
// tests can drive the command end to end (runE also injects the progress
// stream).
func run(args []string, out io.Writer) error {
	return runE(args, out, os.Stderr)
}

func runE(args []string, out, errW io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		list     = fs.Bool("list", false, "print experiment IDs with one-line descriptions and exit")
		kinds    = fs.Bool("kinds", false, "list every registered protocol/arrival/jammer/router kind usable in -spec files and exit")
		idList   = fs.String("id", "all", "comma-separated experiment IDs, or \"all\"")
		scale    = fs.String("scale", "full", "sweep scale: full or small")
		reps     = fs.Int("reps", 0, "replications per data point (0 = scale default)")
		seed     = fs.Uint64("seed", 0, "base seed (0 = default)")
		parallel = fs.Int("parallel", runtime.NumCPU(), "simulations run concurrently; tables are identical for every value")
		outdir   = fs.String("outdir", "", "directory to write per-experiment .txt/.csv (optional)")
		specFile = fs.String("spec", "", "JSON sweep-spec file to run instead of the registry (see lowsensing.SweepSpec)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf  = fs.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
		progress = fs.Bool("progress", false, "with -spec: stream per-job progress (wall time, events/sec, ETA) to stderr")
		traceOut = fs.String("trace", "", "with -spec: write every job's structured trace (slot + packet events) to this NDJSON file, one labeled stream per job (per channel on cluster points)")
		metrics  = fs.String("metrics", "", "with -spec: write every job's windowed time-series to this NDJSON file, one labeled stream per job (per channel on cluster points)")
		window   = fs.Int64("window", 0, "metrics window size in slots (0 = 1024)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not an error
		}
		return err
	}

	// Profiling wraps everything below, so any invocation — registry
	// experiments or -spec sweeps — can be profiled; the engine hot path
	// is exactly what these runs spend their time in.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// Create the file before the run so a bad path fails in
		// milliseconds, not after a multi-minute experiment; only the
		// heap snapshot itself is deferred to the end.
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer func() {
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("-memprofile: %v", err)
			}
		}()
	}

	if *list {
		return listExperiments(out)
	}
	if *kinds {
		return lowsensing.WriteKinds(out)
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be >= 1, got %d", *parallel)
	}
	if *reps < 0 {
		return fmt.Errorf("-reps must be >= 0, got %d", *reps)
	}
	if *window < 0 {
		return fmt.Errorf("-window must be >= 0, got %d", *window)
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}
	if *specFile != "" {
		explicit := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if explicit["id"] || explicit["scale"] {
			return fmt.Errorf("-id/-scale select registry experiments and do not apply to -spec sweeps")
		}
		// -seed/-reps, when given, override the spec file's values.
		return runSpec(specRun{
			path:    *specFile,
			workers: *parallel,
			outdir:  *outdir,
			seed:    *seed,
			reps:    *reps,
			trace:   *traceOut,
			metrics: *metrics,
			window:  *window,
			prog:    *progress,
		}, out, errW)
	}
	if *progress || *traceOut != "" || *metrics != "" {
		return fmt.Errorf("-progress/-trace/-metrics observe declarative sweeps; they require -spec")
	}

	rc := harness.DefaultRunConfig()
	if *scale == "small" {
		rc = harness.SmallRunConfig()
	} else if *scale != "full" {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *reps > 0 {
		rc.Reps = *reps
	}
	if *seed != 0 {
		rc.Seed = *seed
	}
	rc.Workers = *parallel

	var exps []harness.Experiment
	if *idList == "all" {
		exps = harness.All()
	} else {
		for _, id := range strings.Split(*idList, ",") {
			e, err := harness.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}

	for _, exp := range exps {
		start := time.Now() //lsbvet:wallclock operator-facing elapsed-time report
		tab, err := exp.Run(rc)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		elapsed := time.Since(start).Round(time.Millisecond) //lsbvet:wallclock operator-facing elapsed-time report
		fmt.Fprintln(out, tab)
		fmt.Fprintf(out, "(%s completed in %s)\n\n", exp.ID, elapsed)
		if err := writeTable(*outdir, exp.ID, tab); err != nil {
			return err
		}
	}
	return nil
}

// listExperiments prints one "ID  Title — Claim" line per experiment.
func listExperiments(out io.Writer) error {
	for _, exp := range harness.All() {
		if _, err := fmt.Fprintf(out, "%-4s %s — %s\n", exp.ID, exp.Title, exp.Claim); err != nil {
			return err
		}
	}
	return nil
}

// specRun is the bag of options shaping one -spec sweep execution.
type specRun struct {
	path           string
	workers        int
	outdir         string
	seed           uint64
	reps           int
	trace, metrics string
	window         int64
	prog           bool
}

// runSpec executes a declarative sweep spec and renders one aggregate
// table: a row per grid point, streamed off the worker pool in grid order.
// Non-zero seed/reps override the spec file's values. Observability taps
// (trace/metrics/progress) attach per-job recorders: every job writes a
// run-labeled stream into the shared NDJSON file, interleaved safely
// through a synchronized writer, so one file carries the whole sweep. A
// cluster job writes one stream per channel, labeled with the channel.
func runSpec(o specRun, out, errW io.Writer) error {
	data, err := os.ReadFile(o.path)
	if err != nil {
		return err
	}
	ss, err := lowsensing.ParseSweepSpec(data)
	if err != nil {
		return err
	}
	if o.seed != 0 {
		ss.Seed = o.seed
	}
	if o.reps > 0 {
		ss.Reps = o.reps
	}
	sw, err := ss.Sweep()
	if err != nil {
		return err
	}
	sw.Workers(o.workers)
	if o.prog {
		sw.ProgressTo(errW)
	}
	var finishers []func() error
	traceW, metricsW := io.Writer(nil), io.Writer(nil)
	openShared := func(path string) (io.Writer, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		bw := bufio.NewWriter(f)
		finishers = append(finishers, func() error {
			// bufio's sticky error surfaces every job's write failure here.
			err := bw.Flush()
			if e := f.Close(); err == nil {
				err = e
			}
			return err
		})
		return obs.NewSyncWriter(bw), nil
	}
	if o.trace != "" {
		if traceW, err = openShared(o.trace); err != nil {
			return err
		}
	}
	if o.metrics != "" {
		if metricsW, err = openShared(o.metrics); err != nil {
			return err
		}
	}
	if traceW != nil || metricsW != nil {
		// observe builds one stream's recorder: its events to -trace, its
		// windowed series to -metrics, both labeled.
		observe := func(label string) lowsensing.Recorder {
			var recs []lowsensing.Recorder
			if traceW != nil {
				s := obs.NewNDJSON(traceW)
				s.SetRun(label)
				recs = append(recs, s)
			}
			if metricsW != nil {
				s := obs.NewNDJSON(metricsW)
				s.SetRun(label)
				recs = append(recs, obs.NewWindows(o.window, s.RecordWindow))
			}
			return obs.Multi(recs...)
		}
		sw.Observe(func(p lowsensing.Point, rep int) lowsensing.Recorder {
			label := fmt.Sprintf("%s r%d", p, rep)
			if p.Scenario.Channels == 0 {
				return observe(label)
			}
			// A cluster job's events carry their channel: one stream each.
			recs := make([]lowsensing.Recorder, p.Scenario.Channels)
			for ch := range recs {
				recs[ch] = observe(fmt.Sprintf("%s ch%02d", label, ch))
			}
			return obs.ByChannel(recs...)
		})
	}

	id := ss.ID
	if id == "" {
		id = "sweep"
	}
	tab := &harness.Table{
		ID:    id,
		Title: fmt.Sprintf("Declarative sweep from %s", filepath.Base(o.path)),
		Columns: []string{
			"point", "reps", "arrived", "delivered", "abandoned", "tput", "meanAcc", "p99Acc", "maxAcc", "meanLat",
		},
	}
	start := time.Now() //lsbvet:wallclock operator-facing elapsed-time report
	reps := 0
	err = sw.Stream(func(pr lowsensing.PointResult) error {
		reps = pr.Reps
		tab.AddRow(
			pr.Point.String(),
			fmt.Sprintf("%d", pr.Reps),
			fmt.Sprintf("%d", pr.Arrived),
			fmt.Sprintf("%.3f", pr.DeliveredFrac()),
			fmt.Sprintf("%d", pr.Abandoned),
			fmt.Sprintf("%.3f", pr.Throughput.Mean()),
			fmt.Sprintf("%.1f", pr.Energy.Accesses.Mean()),
			fmt.Sprintf("%.0f", pr.Energy.Accesses.Quantile(0.99)),
			fmt.Sprintf("%d", pr.Energy.Accesses.MaxV),
			fmt.Sprintf("%.1f", pr.Latency.Mean()),
		)
		return nil
	})
	for _, done := range finishers {
		if ferr := done(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		return err
	}
	tab.AddNote("%d points x %d reps, aggregated with streaming stats (no per-packet retention)",
		len(tab.Rows), reps)
	fmt.Fprintln(out, tab)
	fmt.Fprintf(out, "(%s completed in %s)\n", id, time.Since(start).Round(time.Millisecond)) //lsbvet:wallclock operator-facing elapsed-time report
	return writeTable(o.outdir, id, tab)
}

// writeTable writes the .txt and .csv renderings when outdir is set.
func writeTable(outdir, id string, tab *harness.Table) error {
	if outdir == "" {
		return nil
	}
	if err := os.WriteFile(filepath.Join(outdir, id+".txt"), []byte(tab.String()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outdir, id+".csv"), []byte(tab.CSV()), 0o644)
}
