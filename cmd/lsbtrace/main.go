// Command lsbtrace runs a small simulation and prints the per-slot channel
// trace: a compact timeline (S=success, x=collision, .=heard-empty,
// !=jam, (+n)=skipped slots) and optionally the full event table. It is
// the visual companion of the paper's Figure 1.
//
// The run is read from -spec, a single-channel JSON lowsensing.Scenario
// (the format lowsensing.ParseScenario accepts); the other flags choose
// the report.
//
// Examples:
//
//	lsbtrace -spec n8.json                       # {"seed":3,"arrivals":{"kind":"batch","n":8},"max_slots":16777216}
//	lsbtrace -spec jam.json -table -windows      # add {"jammer":{"kind":"burst","to":64}} for a jammed prefix
//	lsbtrace -spec n64.json -json trace.ndjson   # structured trace alongside the ASCII
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"lowsensing"
	"lowsensing/internal/trace"
	"lowsensing/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lsbtrace: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run parses args, executes one traced simulation, and writes the report
// to out (warnings go to errW). Split from main so tests can drive the
// command end to end.
func run(args []string, out, errW io.Writer) error {
	fs := flag.NewFlagSet("lsbtrace", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		specFile = fs.String("spec", "", "JSON scenario file, single-channel (required; see lowsensing.Scenario)")
		width    = fs.Int("width", 76, "timeline width (>= 1)")
		table    = fs.Bool("table", false, "print the full event table")
		windows  = fs.Bool("windows", false, "print the window-size trajectory")
		jsonFile = fs.String("json", "", "also write the structured trace (slot + packet events) as NDJSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not an error
		}
		return err
	}
	if *specFile == "" {
		fs.Usage()
		return errors.New("-spec is required: the run is read from a JSON scenario file")
	}
	if *width < 1 {
		return fmt.Errorf("-width must be >= 1, got %d", *width)
	}
	data, err := os.ReadFile(*specFile)
	if err != nil {
		return err
	}
	sc, err := lowsensing.ParseScenario(data)
	if err != nil {
		return err
	}

	// Every consumer is a recorder on the engine's one event stream: the
	// ASCII tracer takes the same obs.SlotEvents an NDJSON sink
	// serializes, and the collector is bound to the engine to read its
	// active windows (so a cluster spec, which has no single engine, is
	// rejected).
	tr := &trace.Tracer{}
	col := &lowsensing.Collector{}
	opts := []lowsensing.Option{lowsensing.WithRecorder(tr), lowsensing.WithRecorder(col)}
	var jsonFlush func() error
	if *jsonFile != "" {
		f, err := os.Create(*jsonFile)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		jsonSink := obs.NewNDJSON(bw)
		jsonFlush = func() error {
			err := jsonSink.Flush()
			if e := bw.Flush(); err == nil {
				err = e
			}
			if e := f.Close(); err == nil {
				err = e
			}
			return err
		}
		opts = append(opts, lowsensing.WithRecorder(jsonSink))
	}
	r, err := sc.Simulation(opts...).Run()
	if jsonFlush != nil {
		if ferr := jsonFlush(); err == nil && ferr != nil {
			err = fmt.Errorf("writing %s: %w", *jsonFile, ferr)
		}
	}
	if err != nil {
		return err
	}

	succ, coll, empty, jammed := tr.CountOutcomes()
	fmt.Fprintf(out, "N=%d delivered=%d activeSlots=%d throughput=%.3f\n",
		r.Arrived, r.Completed, r.ActiveSlots, r.Throughput())
	fmt.Fprintf(out, "resolved slots: %d success, %d collision, %d heard-empty, %d jammed\n\n",
		succ, coll, empty, jammed)
	fmt.Fprintln(out, tr.Timeline(*width))
	if *windows {
		fmt.Fprintln(out)
		fmt.Fprintln(out, "window trajectory (sampled):")
		fmt.Fprint(out, windowTable(col))
	}
	if *table {
		fmt.Fprintln(out)
		fmt.Fprint(out, tr.Table())
	}
	warnIfDropped(errW, tr.Dropped())
	return nil
}

// windowTable renders the collector's window distribution, thinned to at
// most 16 evenly spaced samples.
func windowTable(col *lowsensing.Collector) string {
	const rows = 16
	samples := col.Samples()
	n := len(samples)
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %8s %10s %10s %10s\n", "slot", "active", "w_min", "w_median", "w_max")
	for i := range min(n, rows) {
		j := i
		if n > rows {
			j = i * (n - 1) / (rows - 1)
		}
		s := samples[j]
		fmt.Fprintf(&b, "%10d %8d %10.1f %10.1f %10.1f\n", s.Slot, int(s.Potential.N), s.WMin, s.WMedian, s.WMax)
	}
	return b.String()
}

// warnIfDropped reports tracer drops on the warning stream: a truncated
// timeline silently missing its tail is worse than a noisy one.
func warnIfDropped(errW io.Writer, dropped int64) {
	if dropped > 0 {
		fmt.Fprintf(errW, "lsbtrace: warning: %d events dropped after the tracer's %d-event limit; the timeline is truncated\n", dropped, trace.DefaultLimit)
	}
}
