// Command lsbsim runs one contention-resolution simulation and prints a
// summary: throughput, implicit throughput, active/jammed slots, and
// per-packet energy statistics.
//
// The flags compile down to a declarative lowsensing.Scenario, so every
// flag-built run is also expressible as a -spec JSON file, and any
// protocol/arrival/jammer kind registered with the lowsensing registries —
// not just the built-ins — can be named by -protocol, -arrivals, and -jam
// (see -kinds for the full list).
//
// Examples:
//
//	lsbsim -n 4096                                # LSB, batch of 4096
//	lsbsim -n 1024 -protocol beb                  # binary exponential backoff
//	lsbsim -n 1024 -arrivals poisson -rate 0.1    # Poisson arrivals
//	lsbsim -n 1024 -jam random -jamrate 0.25      # random jamming
//	lsbsim -n 1024 -jam reactive -jambudget 64    # reactive jam on packet 0
//	lsbsim -n 4096 -channels 16 -router sticky    # 16-channel cluster, affinity routing
//	lsbsim -n 1024 -churn '{"kind":"poisson-join-leave","rate":0.05,"n":64,"leave_rate":0.02}'
//	lsbsim -n 1024 -faults '{"kind":"sensing","false_busy":0.2,"false_idle":0.1}' -baseline
//	lsbsim -spec scenario.json                    # whole scenario from JSON
//	lsbsim -spec cluster.json -router roundrobin  # cluster spec, router overridden
//	lsbsim -kinds                                 # list registered kinds
//
// With -channels >= 2, or a spec with "channels" >= 1, the scenario runs
// as a multi-channel cluster: arriving packets are assigned to channels by
// the router (-router, or the spec's "router"; any kind registered with
// lowsensing.RegisterRouter), every channel runs the protocol
// independently, and the summary adds the routing balance, the Jain
// fairness index, and one line per channel. -trace then multiplexes all
// channels into one NDJSON file (run labels ch00, ch01, ...), and -metrics
// writes the cluster-wide windowed roll-up.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"lowsensing"
	"lowsensing/internal/metrics"
	"lowsensing/internal/sim"
	"lowsensing/obs"
)

// errUndelivered signals the historical exit code 2: the run finished with
// packets still in the system.
var errUndelivered = errors.New("undelivered packets remain")

// errUsage signals a flag parse error. The FlagSet has already printed the
// error and usage, so main exits 2 (flag.ExitOnError's historical code)
// without printing again.
var errUsage = errors.New("usage error")

func main() {
	log.SetFlags(0)
	log.SetPrefix("lsbsim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUndelivered) || errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run parses args, executes one simulation, and prints the summary. Split
// from main so tests can drive the command end to end.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lsbsim", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		n         = fs.Int64("n", 1024, "number of packets")
		protocol  = fs.String("protocol", "lsb", "protocol kind (see -kinds)")
		arrival   = fs.String("arrivals", "batch", "arrival process kind (see -kinds)")
		traceFile = fs.String("tracefile", "", "arrival trace file for -arrivals file (lines: slot count)")
		rate      = fs.Float64("rate", 0.1, "arrival rate (bernoulli/poisson) or lambda (aqt)")
		gran      = fs.Int64("granularity", 1024, "aqt granularity S")
		jam       = fs.String("jam", "none", "jammer kind, or none (see -kinds)")
		jamRate   = fs.Float64("jamrate", 0.25, "random jam rate")
		jamFrom   = fs.Int64("jamfrom", 0, "burst jam start slot")
		jamTo     = fs.Int64("jamto", 1024, "burst jam end slot (exclusive)")
		jamBudget = fs.Int64("jambudget", 0, "jam budget (0 = unbounded; reactive target is packet 0)")
		seed      = fs.Uint64("seed", 1, "random seed")
		maxSlots  = fs.Int64("maxslots", 0, "slot cap (0 = generous default)")
		c         = fs.Float64("c", 0, "LSB constant c (0 = default)")
		wmin      = fs.Float64("wmin", 0, "LSB minimum window (0 = default)")
		churn     = fs.String("churn", "", "population churn spec as JSON, e.g. {\"kind\":\"flash-crowd\",\"slot\":64,\"n\":12,\"lifetime\":400} (see -kinds)")
		faults    = fs.String("faults", "", "station fault spec as JSON, e.g. {\"kind\":\"sensing\",\"false_busy\":0.2} (see -kinds)")
		baseline  = fs.Bool("baseline", false, "also run the fault-free baseline (same seed, churn and faults stripped) and print the degradation report")
		channels  = fs.Int("channels", 1, "run a multi-channel cluster with this many channels (>= 2 enables cluster mode; overrides a -spec file's channels)")
		router    = fs.String("router", "", "cluster routing policy (default random; see -kinds; overrides a -spec file's router)")
		specFile  = fs.String("spec", "", "JSON scenario file, single-channel or cluster; replaces the flag-built scenario (see lowsensing.Scenario)")
		kinds     = fs.Bool("kinds", false, "list every registered protocol/arrival/jammer/router kind and exit")
		traceOut  = fs.String("trace", "", "write the structured trace (slot + packet events) to this file as NDJSON (.csv for CSV)")
		metrics_  = fs.String("metrics", "", "write the windowed time-series to this file as NDJSON (.csv for CSV)")
		window    = fs.Int64("window", 0, "metrics window size in slots (0 = 1024)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not an error
		}
		return errUsage // the FlagSet already printed the error and usage
	}
	if *kinds {
		return lowsensing.WriteKinds(out)
	}

	var (
		sc       lowsensing.Scenario
		protoLbl string
	)
	if *specFile != "" {
		if conflict := specFlagConflict(fs); conflict != "" {
			return fmt.Errorf("-spec takes the whole scenario from the file; -%s does not apply (edit the spec instead)", conflict)
		}
		var err error
		if sc, err = loadSpecFile(*specFile); err != nil {
			return err
		}
		protoLbl = protocolLabel(sc) + " (spec)"
	} else {
		// The flags compile to a Scenario: kinds are resolved through the
		// registries, so the flag path and the -spec path are the same code.
		var err error
		if sc, err = makeScenario(flagScenario{
			n: *n, protocol: *protocol, arrivals: *arrival, traceFile: *traceFile,
			rate: *rate, gran: *gran, jam: *jam, jamRate: *jamRate,
			jamFrom: *jamFrom, jamTo: *jamTo, jamBudget: *jamBudget,
			seed: *seed, maxSlots: *maxSlots, c: *c, wmin: *wmin,
			churn: *churn, faults: *faults,
		}); err != nil {
			return err
		}
		protoLbl = protocolLabel(sc)
	}

	// -channels and -router write the scenario's cluster fields; set
	// explicitly, they override a spec file's (-channels 1 means one
	// plain channel, with no router).
	channelsSet := isSet(fs, "channels")
	if channelsSet {
		if *channels < 1 {
			return fmt.Errorf("-channels must be >= 1, got %d", *channels)
		}
		sc.Channels = *channels
		if *channels == 1 {
			sc.Channels, sc.Router = 0, lowsensing.RouterSpec{}
		}
	}
	if *router != "" {
		if sc.Channels == 0 {
			return fmt.Errorf("-router requires -channels >= 2")
		}
		sc.Router = lowsensing.RouterSpec{Kind: *router}
	}
	if channelsSet || *router != "" {
		if err := sc.Validate(); err != nil {
			return err
		}
	}
	// Cluster mode: the scenario runs on a multi-channel cluster behind
	// its router.
	if sc.Channels >= 1 {
		return runCluster(out, sc, protoLbl, *baseline, *traceOut, *metrics_, *window)
	}

	// Observability side channels: -trace streams raw slot/packet events,
	// -metrics streams the windowed time-series. Both attach as recorders;
	// a run without them pays one predictable branch per slot.
	var opts []lowsensing.Option
	var finishers []func() error
	if *traceOut != "" {
		sink, done, err := openSink(*traceOut)
		if err != nil {
			return err
		}
		opts = append(opts, lowsensing.WithRecorder(sink))
		finishers = append(finishers, done)
	}
	if *metrics_ != "" {
		sink, done, err := openSink(*metrics_)
		if err != nil {
			return err
		}
		ws := obs.NewWindows(*window, sink.RecordWindow)
		opts = append(opts, lowsensing.WithRecorder(ws))
		finishers = append(finishers, func() error {
			if err := ws.Flush(); err != nil {
				return err
			}
			return done()
		})
	}

	r, err := sc.Simulation(opts...).Run()
	for _, done := range finishers {
		if ferr := done(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		return err
	}

	// -baseline: rerun the fault-free counterpart (same seed, churn and
	// faults stripped) and report graceful degradation. The baseline run is
	// never observed — the side channels describe the faulty run.
	if *baseline {
		base, err := sc.FaultFree().Run()
		if err != nil {
			return fmt.Errorf("fault-free baseline: %w", err)
		}
		r.Degradation = sim.DegradationVs(r, base)
	}

	fmt.Fprintf(out, "protocol            %s\n", protoLbl)
	return printSummary(out, r)
}

// printSummary prints the merged result block shared by single-channel
// and cluster runs, returning errUndelivered when packets remain.
func printSummary(out io.Writer, r lowsensing.Result) error {
	es := metrics.SummarizeEnergy(r)
	fmt.Fprintf(out, "packets             %d arrived, %d delivered", r.Arrived, r.Completed)
	if r.Abandoned > 0 {
		fmt.Fprintf(out, ", %d abandoned", r.Abandoned)
	}
	if r.Truncated {
		fmt.Fprintf(out, "  (TRUNCATED at slot %d)", r.LastSlot)
	}
	fmt.Fprintln(out)
	if f := r.Faults; f != (lowsensing.FaultStats{}) {
		fmt.Fprintf(out, "faults              %d corrupted (%d busy, %d idle), %d crashes, %d down slots\n",
			f.Corrupted, f.FalseBusy, f.FalseIdle, f.Crashes, f.DownSlots)
	}
	fmt.Fprintf(out, "active slots        %d\n", r.ActiveSlots)
	fmt.Fprintf(out, "jammed slots        %d\n", r.JammedSlots)
	fmt.Fprintf(out, "throughput          %.4f   (T+J)/S\n", r.Throughput())
	fmt.Fprintf(out, "implicit throughput %.4f   (N+J)/S\n", r.ImplicitThroughput())
	fmt.Fprintf(out, "sends/packet        mean %.1f  p99 %.0f  max %.0f\n", es.Sends.Mean, es.Sends.P99, es.Sends.Max)
	fmt.Fprintf(out, "listens/packet      mean %.1f  p99 %.0f  max %.0f\n", es.Listens.Mean, es.Listens.P99, es.Listens.Max)
	fmt.Fprintf(out, "accesses/packet     mean %.1f  p99 %.0f  max %.0f\n", es.Accesses.Mean, es.Accesses.P99, es.Accesses.Max)
	if es.Latency.N > 0 {
		fmt.Fprintf(out, "latency (slots)     mean %.1f  p99 %.0f  max %.0f\n", es.Latency.Mean, es.Latency.P99, es.Latency.Max)
	}
	if len(r.Classes) > 0 {
		fmt.Fprintf(out, "class fairness      %.4f\n", r.ClassFairness)
		for _, cl := range r.Classes {
			fmt.Fprintf(out, "  class %-12s arrived %6d  delivered %6d  abandoned %6d  survivors %6d\n",
				cl.Name, cl.Arrived, cl.Completed, cl.Abandoned, cl.Survivors)
		}
	}
	printDegradation(out, r.Degradation)
	if es.Undelivered > 0 {
		fmt.Fprintf(out, "undelivered         %d\n", es.Undelivered)
		return errUndelivered
	}
	return nil
}

// printDegradation prints the graceful-degradation rows of a -baseline run
// (one row per class; classless runs produce a single unnamed row).
func printDegradation(out io.Writer, rows []lowsensing.ClassDelta) {
	for _, d := range rows {
		name := d.Name
		if name == "" {
			name = "(all)"
		}
		fmt.Fprintf(out, "degradation %-12s delivered %.4f vs %.4f (%+.4f)  accesses %.1f vs %.1f  latency %.1f vs %.1f\n",
			name, d.DeliveredFrac, d.BaselineDeliveredFrac, d.Delta,
			d.MeanAccesses, d.BaselineMeanAccesses, d.MeanLatency, d.BaselineMeanLatency)
	}
}

// runCluster executes a validated cluster scenario (Channels >= 1) and
// prints the cluster summary: the merged block in the single-channel
// format, the routing balance, and one line per channel. -trace
// multiplexes every channel's NDJSON stream into one file with ch%02d run
// labels; -metrics rolls the per-channel windowed series up into one
// cluster-wide series (obs.MergeWindowSeries).
func runCluster(out io.Writer, sc lowsensing.Scenario, protoLbl string, baseline bool, traceOut, metricsOut string, window int64) error {
	cs := lowsensing.ClusterScenario(sc)
	channels := sc.Channels

	// Per-channel recorder factories; each channel gets an obs.Multi over
	// one recorder per requested side channel. The factories may be
	// invoked from worker goroutines, so they only index preallocated
	// state or construct sinks over a sync writer.
	var mks []func(ch int) lowsensing.Recorder
	var finishers []func() error
	if traceOut != "" {
		if strings.HasSuffix(traceOut, ".csv") {
			return fmt.Errorf("-trace in cluster mode multiplexes NDJSON run labels; .csv is not supported")
		}
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		shared := obs.NewSyncWriter(bw)
		finishers = append(finishers, func() error {
			if err := bw.Flush(); err != nil {
				return err
			}
			return f.Close()
		})
		mks = append(mks, func(ch int) lowsensing.Recorder {
			sink := obs.NewNDJSON(shared)
			sink.SetRun(fmt.Sprintf("ch%02d", ch))
			return sink
		})
	}
	var wins []*obs.Windows
	if metricsOut != "" {
		wins = make([]*obs.Windows, channels)
		for ch := range wins {
			wins[ch] = obs.NewWindows(window, nil)
		}
		mks = append(mks, func(ch int) lowsensing.Recorder { return wins[ch] })
	}

	var cr lowsensing.ClusterResult
	var err error
	if len(mks) > 0 {
		cr, err = cs.RunObserved(func(ch int) lowsensing.Recorder {
			recs := make([]lowsensing.Recorder, len(mks))
			for i, mk := range mks {
				recs[i] = mk(ch)
			}
			return obs.Multi(recs...)
		})
	} else {
		cr, err = cs.Run()
	}
	for _, done := range finishers {
		if ferr := done(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		return err
	}
	var degradation []lowsensing.ClassDelta
	if baseline {
		base, err := sc.FaultFree().Run()
		if err != nil {
			return fmt.Errorf("fault-free baseline: %w", err)
		}
		degradation = sim.DegradationVs(cr.Total, base)
	}

	if metricsOut != "" {
		sink, done, err := openSink(metricsOut)
		if err != nil {
			return err
		}
		series := make([][]obs.WindowStat, channels)
		for ch, w := range wins {
			series[ch] = w.Stats()
		}
		for _, ws := range obs.MergeWindowSeries(series...) {
			sink.RecordWindow(ws)
		}
		if err := done(); err != nil {
			return err
		}
	}

	label := sc.Router.Kind
	if label == "" {
		label = lowsensing.RouterRandom
	}
	fmt.Fprintf(out, "cluster             %d channels, router %s\n", channels, label)
	fmt.Fprintf(out, "protocol            %s\n", protoLbl)
	minR, maxR := cr.Routed[0], cr.Routed[0]
	for _, n := range cr.Routed[1:] {
		if n < minR {
			minR = n
		}
		if n > maxR {
			maxR = n
		}
	}
	fmt.Fprintf(out, "routed/channel      min %d  max %d\n", minR, maxR)
	fmt.Fprintf(out, "fairness (jain)     %.4f\n", cr.Fairness)
	printDegradation(out, degradation)
	sumErr := printSummary(out, cr.Total)
	for ch := range cr.PerChannel {
		r := &cr.PerChannel[ch]
		fmt.Fprintf(out, "  ch%02d  routed %6d  delivered %6d  throughput %.4f\n",
			ch, cr.Routed[ch], r.Completed, r.Throughput())
	}
	return sumErr
}

// flagScenario is the bag of scenario-shaping flag values.
type flagScenario struct {
	n                         int64
	protocol, arrivals        string
	traceFile                 string
	rate                      float64
	gran                      int64
	jam                       string
	jamRate                   float64
	jamFrom, jamTo, jamBudget int64
	seed                      uint64
	maxSlots                  int64
	c, wmin                   float64
	churn, faults             string
}

// makeScenario compiles the flag values into a declarative Scenario and
// validates it (so unknown kinds and bad parameters are reported before the
// run starts, with the registry's kind listing in the message).
func makeScenario(f flagScenario) (lowsensing.Scenario, error) {
	if f.arrivals == lowsensing.ArrivalsFile && f.traceFile == "" {
		return lowsensing.Scenario{}, fmt.Errorf("-arrivals file requires -tracefile")
	}
	sc := lowsensing.Scenario{
		Seed:     f.seed,
		Arrivals: makeArrivalsSpec(f),
		Protocol: makeProtocolSpec(f),
		Jammer:   makeJammerSpec(f),
		MaxSlots: f.maxSlots,
	}
	if err := parseJSONFlag("churn", f.churn, &sc.Churn); err != nil {
		return lowsensing.Scenario{}, err
	}
	if err := parseJSONFlag("faults", f.faults, &sc.Faults); err != nil {
		return lowsensing.Scenario{}, err
	}
	if sc.MaxSlots == 0 {
		sc.MaxSlots = 2000*f.n + (1 << 22)
	}
	if err := sc.Validate(); err != nil {
		return lowsensing.Scenario{}, err
	}
	return sc, nil
}

// makeProtocolSpec maps the protocol flags onto a spec. Kinds with
// flag-derived parameters (lsb overrides, aloha's 1/n rate) are filled in;
// anything else — including user-registered kinds — passes through by name.
func makeProtocolSpec(f flagScenario) lowsensing.ProtocolSpec {
	switch f.protocol {
	case lowsensing.ProtocolLSB:
		cfg := lowsensing.DefaultConfig()
		if f.c > 0 {
			cfg.C = f.c
		}
		if f.wmin > 0 {
			cfg.WMin = f.wmin
		}
		return lowsensing.LowSensing(cfg)
	case lowsensing.ProtocolAloha:
		return lowsensing.Aloha(1 / float64(f.n))
	default:
		return lowsensing.ProtocolSpec{Kind: f.protocol}
	}
}

// makeArrivalsSpec maps the arrival flags onto a spec.
func makeArrivalsSpec(f flagScenario) lowsensing.ArrivalsSpec {
	switch f.arrivals {
	case lowsensing.ArrivalsFile:
		return lowsensing.FileArrivals(f.traceFile)
	case lowsensing.ArrivalsBatch:
		return lowsensing.BatchArrivals(f.n)
	case lowsensing.ArrivalsBernoulli:
		return lowsensing.BernoulliArrivals(f.rate, f.n)
	case lowsensing.ArrivalsPoisson:
		return lowsensing.PoissonArrivals(f.rate, f.n)
	case lowsensing.ArrivalsQueue:
		windows := f.n / max64(1, int64(f.rate*float64(f.gran)))
		if windows < 1 {
			windows = 1
		}
		return lowsensing.QueueArrivals(f.gran, f.rate, windows)
	default:
		return lowsensing.ArrivalsSpec{Kind: f.arrivals, N: f.n, Rate: f.rate}
	}
}

// makeJammerSpec maps the jam flags onto a spec ("none" means no jammer).
func makeJammerSpec(f flagScenario) lowsensing.JammerSpec {
	switch f.jam {
	case "none":
		return lowsensing.JammerSpec{}
	case lowsensing.JammerRandom:
		return lowsensing.RandomJamming(f.jamRate, f.jamBudget)
	case lowsensing.JammerBurst:
		return lowsensing.BurstJamming(f.jamFrom, f.jamTo)
	case lowsensing.JammerReactive:
		return lowsensing.ReactiveJamming(0, f.jamBudget)
	default:
		return lowsensing.JammerSpec{Kind: f.jam, Rate: f.jamRate, Budget: f.jamBudget}
	}
}

// parseJSONFlag strictly decodes a JSON-snippet flag value into spec
// (unknown fields are errors, same as -spec files). Empty means unset.
func parseJSONFlag(name, value string, spec any) error {
	if value == "" {
		return nil
	}
	dec := json.NewDecoder(strings.NewReader(value))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return fmt.Errorf("-%s: %v", name, err)
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// specFlagConflict returns the name of the first scenario-shaping flag
// other than -spec the user set explicitly, or "". A spec file defines the
// entire scenario, so combining it with the flag-built scenario would
// silently drop whichever side lost; reject the mix instead. Output-side
// flags (-trace, -metrics, -window) shape no scenario data and compose
// with -spec freely.
func specFlagConflict(fs *flag.FlagSet) string {
	conflict := ""
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		// -channels/-router override the spec's cluster fields, so a
		// spec'd scenario can run as (or on a different) cluster.
		// -baseline only adds a report over whatever scenario runs.
		case "spec", "trace", "metrics", "window", "channels", "router", "baseline":
			return
		}
		if conflict == "" {
			conflict = f.Name
		}
	})
	return conflict
}

// isSet reports whether the named flag was set explicitly.
func isSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// recordSink is the slice of the obs sink surface lsbsim drives: raw
// events, windowed series, run labeling (cluster mode tags each channel's
// stream), and a flush. Both obs.NDJSON and obs.CSV satisfy it.
type recordSink interface {
	obs.Recorder
	RecordWindow(obs.WindowStat)
	SetRun(string)
	Flush() error
}

// openSink creates path and returns a buffered sink for it — CSV if the
// path ends in .csv, NDJSON otherwise — plus a finisher that flushes both
// layers and closes the file.
func openSink(path string) (recordSink, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	var s recordSink
	if strings.HasSuffix(path, ".csv") {
		s = obs.NewCSV(bw)
	} else {
		s = obs.NewNDJSON(bw)
	}
	done := func() error {
		err := s.Flush()
		if e := bw.Flush(); err == nil {
			err = e
		}
		if e := f.Close(); err == nil {
			err = e
		}
		return err
	}
	return s, done, nil
}

// loadSpecFile loads and validates a declarative JSON scenario.
func loadSpecFile(path string) (lowsensing.Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return lowsensing.Scenario{}, err
	}
	return lowsensing.ParseScenario(data)
}

// protocolLabel names the scenario's protocol for the report header.
func protocolLabel(sc lowsensing.Scenario) string {
	if sc.Protocol.Kind == "" {
		return lowsensing.ProtocolLSB
	}
	return sc.Protocol.Kind
}
