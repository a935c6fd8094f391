// Command lsbsim runs one contention-resolution simulation and prints a
// summary: throughput, implicit throughput, active/jammed slots, and
// per-packet energy statistics.
//
// The run is read from -spec, a JSON lowsensing.Scenario (the format
// lowsensing.ParseScenario accepts), so any protocol/arrival/jammer/
// router/churn/fault kind registered with the lowsensing registries — not
// just the built-ins — can be named there (see -kinds for the full list).
// The other flags only choose what is reported about the run.
//
// Examples:
//
//	lsbsim -spec scenario.json                    # one run, summary only
//	lsbsim -spec scenario.json -baseline          # plus the fault-free degradation report
//	lsbsim -spec scenario.json -trace t.ndjson -metrics m.ndjson -window 512
//	lsbsim -kinds                                 # list registered kinds
//
// where scenario.json is, for example,
//
//	{"seed": 5, "arrivals": {"kind": "poisson", "rate": 0.1, "n": 500},
//	 "jammer": {"kind": "random", "rate": 0.25}}
//
// A spec with "channels" >= 1 runs as a multi-channel cluster: arriving
// packets are assigned to channels by the spec's "router" (any kind
// registered with lowsensing.RegisterRouter), every channel runs the
// protocol independently, and the summary adds the routing balance, the
// Jain fairness index, and one line per channel. -trace then multiplexes
// all channels into one NDJSON file (run labels ch00, ch01, ...), and
// -metrics writes the cluster-wide windowed roll-up.
package main

import (
	"bufio"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"lowsensing"
	"lowsensing/internal/metrics"
	"lowsensing/internal/sim"
	"lowsensing/obs"
)

// errUndelivered signals the historical exit code 2: the run finished with
// packets still in the system.
var errUndelivered = errors.New("undelivered packets remain")

// errUsage signals a bad invocation. The error and the usage have already
// been printed, so main exits 2 (flag.ExitOnError's historical code)
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
		specFile = fs.String("spec", "", "JSON scenario file, single-channel or cluster (required unless -kinds; see lowsensing.Scenario)")
		kinds    = fs.Bool("kinds", false, "list every registered protocol/arrival/jammer/router/churn/fault kind and exit")
		baseline = fs.Bool("baseline", false, "also run the fault-free baseline (same seed, churn and faults stripped) and print the degradation report")
		traceOut = fs.String("trace", "", "write the structured trace (slot + packet events) to this file as NDJSON (.csv for CSV)")
		metrics_ = fs.String("metrics", "", "write the windowed time-series to this file as NDJSON (.csv for CSV)")
		window   = fs.Int64("window", 0, "metrics window size in slots (0 = 1024)")
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
	if *specFile == "" {
		return usageError(fs, "-spec is required: the run is read from a JSON scenario file")
	}
	if *window < 0 {
		return usageError(fs, "-window must be >= 0, got %d", *window)
	}
	sc, err := loadSpecFile(*specFile)
	if err != nil {
		return err
	}
	// Observability side channels: -trace streams raw slot/packet events,
	// -metrics streams the windowed time-series. Both attach as recorders;
	// a run without them pays one predictable branch per slot.
	var opts []lowsensing.Option
	var finishers []func() error
	if *traceOut != "" {
		rec, done, err := openTrace(*traceOut, sc.Channels)
		if err != nil {
			return err
		}
		opts = append(opts, lowsensing.WithRecorder(rec))
		finishers = append(finishers, done)
	}
	if *metrics_ != "" {
		rec, done, err := openMetrics(*metrics_, *window, sc.Channels)
		if err != nil {
			return err
		}
		opts = append(opts, lowsensing.WithRecorder(rec))
		finishers = append(finishers, done)
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

	if sc.Channels >= 1 {
		return printCluster(out, sc, r)
	}
	fmt.Fprintf(out, "protocol            %s\n", protocolLabel(sc))
	return printSummary(out, r)
}

// usageError reports a bad invocation the flag package cannot catch the
// way it reports its own: the message, then the usage. The returned error
// wraps errUsage and carries the message.
func usageError(fs *flag.FlagSet, format string, a ...any) error {
	err := fmt.Errorf(format, a...)
	fmt.Fprintln(fs.Output(), err)
	fs.Usage()
	return fmt.Errorf("%w: %v", errUsage, err)
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

// printCluster prints a cluster run's summary: the cluster header and
// routing balance, the degradation rows of a -baseline run, the merged
// block in the single-channel format, and one line per channel.
func printCluster(out io.Writer, sc lowsensing.Scenario, r lowsensing.Result) error {
	fmt.Fprintf(out, "cluster             %d channels, router %s\n", sc.Channels, cmp.Or(sc.Router.Kind, lowsensing.RouterRandom))
	fmt.Fprintf(out, "protocol            %s\n", protocolLabel(sc))
	fmt.Fprintf(out, "routed/channel      min %d  max %d\n", slices.Min(r.Routed), slices.Max(r.Routed))
	fmt.Fprintf(out, "fairness (jain)     %.4f\n", r.ChannelFairness)
	printDegradation(out, r.Degradation)
	r.Degradation = nil // printed above the merged block
	sumErr := printSummary(out, r)
	for ch := range r.PerChannel {
		pc := &r.PerChannel[ch]
		fmt.Fprintf(out, "  ch%02d  routed %6d  delivered %6d  throughput %.4f\n",
			ch, r.Routed[ch], pc.Completed, pc.Throughput())
	}
	return sumErr
}

// openTrace opens the -trace file and returns the recorder that writes it
// and a finisher. A cluster writes every channel into the one NDJSON file:
// obs.ByChannel hands channel ch's events to a sink labeled chNN. CSV has
// no run-label multiplexing, so a cluster's trace must be NDJSON.
func openTrace(path string, channels int) (lowsensing.Recorder, func() error, error) {
	if channels >= 1 && strings.HasSuffix(path, ".csv") {
		return nil, nil, fmt.Errorf("-trace in cluster mode multiplexes NDJSON run labels; .csv is not supported")
	}
	sinks, done, err := openSinks(path, max(channels, 1))
	if err != nil {
		return nil, nil, err
	}
	if channels == 0 {
		return sinks[0], done, nil
	}
	recs := make([]lowsensing.Recorder, channels)
	for ch, s := range sinks {
		s.SetRun(fmt.Sprintf("ch%02d", ch))
		recs[ch] = s
	}
	return obs.ByChannel(recs...), done, nil
}

// openMetrics opens the -metrics file and returns the recorder that feeds
// it and a finisher. One channel streams its windows into the file as they
// close. A cluster collects one series per channel (obs.ByChannel over a
// Windows each), and the finisher writes their cluster-wide roll-up
// (obs.MergeWindowSeries).
func openMetrics(path string, window int64, channels int) (lowsensing.Recorder, func() error, error) {
	sinks, done, err := openSinks(path, 1)
	if err != nil {
		return nil, nil, err
	}
	sink := sinks[0]
	if channels == 0 {
		ws := obs.NewWindows(window, sink.RecordWindow)
		return ws, func() error {
			if err := ws.Flush(); err != nil {
				return err
			}
			return done()
		}, nil
	}
	wins := make([]*obs.Windows, channels)
	recs := make([]lowsensing.Recorder, channels)
	for ch := range wins {
		wins[ch] = obs.NewWindows(window, nil)
		recs[ch] = wins[ch]
	}
	demux := obs.ByChannel(recs...)
	return demux, func() error {
		if err := obs.Flush(demux); err != nil {
			return err
		}
		series := make([][]obs.WindowStat, channels)
		for ch, w := range wins {
			series[ch] = w.Stats()
		}
		for _, ws := range obs.MergeWindowSeries(series...) {
			sink.RecordWindow(ws)
		}
		return done()
	}, nil
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

// openSinks creates path and returns n sinks writing to it through one
// buffer — CSV if the path ends in .csv, NDJSON otherwise — plus a
// finisher that flushes every layer and closes the file.
func openSinks(path string, n int) ([]recordSink, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	sinks := make([]recordSink, n)
	for i := range sinks {
		if strings.HasSuffix(path, ".csv") {
			sinks[i] = obs.NewCSV(bw)
		} else {
			sinks[i] = obs.NewNDJSON(bw)
		}
	}
	done := func() error {
		var err error
		for _, s := range sinks {
			if e := s.Flush(); err == nil {
				err = e
			}
		}
		if e := bw.Flush(); err == nil {
			err = e
		}
		if e := f.Close(); err == nil {
			err = e
		}
		return err
	}
	return sinks, done, nil
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
