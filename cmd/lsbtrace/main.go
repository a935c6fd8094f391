// Command lsbtrace runs a small LOW-SENSING BACKOFF instance and prints the
// per-slot channel trace: a compact timeline (S=success, x=collision,
// .=heard-empty, !=jam, (+n)=skipped slots) and optionally the full event
// table. It is the visual companion of the paper's Figure 1.
//
// Example:
//
//	lsbtrace -n 8 -seed 3
//	lsbtrace -n 6 -jamto 64 -table
//	lsbtrace -n 64 -json trace.ndjson   # structured trace alongside the ASCII
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/internal/jamming"
	"lowsensing/internal/sim"
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
		n        = fs.Int64("n", 8, "number of packets (batch at slot 0)")
		seed     = fs.Uint64("seed", 1, "random seed")
		jamFrom  = fs.Int64("jamfrom", 0, "burst jam start slot")
		jamTo    = fs.Int64("jamto", 0, "burst jam end slot (0 = no jamming)")
		width    = fs.Int("width", 76, "timeline width")
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
	if *n <= 0 {
		return fmt.Errorf("-n must be > 0, got %d", *n)
	}

	tr := &trace.Tracer{}
	wt := &trace.WindowTracker{}
	// Every consumer is a recorder on the engine's one event stream: the
	// ASCII tracer takes the same obs.SlotEvents an NDJSON sink
	// serializes, and the window tracker is bound to the engine to read its
	// active windows.
	rec := obs.Multi(tr, wt)
	var (
		jsonSink  *obs.NDJSON
		jsonFlush func() error
	)
	if *jsonFile != "" {
		f, err := os.Create(*jsonFile)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		jsonSink = obs.NewNDJSON(bw)
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
		rec = obs.Multi(tr, wt, jsonSink)
	}
	params := sim.Params{
		Seed:       *seed,
		Arrivals:   arrivals.NewBatch(*n),
		NewStation: core.MustFactory(core.Default()),
		// Every station is an identically-configured LSB packet, so
		// recycling is indistinguishable from reconstruction.
		ReuseStations: true,
		MaxSlots:      1 << 24,
		Recorder:      rec,
	}
	if *jamTo > *jamFrom {
		iv, err := jamming.NewInterval(*jamFrom, *jamTo)
		if err != nil {
			return err
		}
		params.Jammer = iv
	}
	e, err := sim.NewEngine(params)
	if err != nil {
		return err
	}
	wt.Bind(e)
	r, err := e.Run()
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
		fmt.Fprint(out, wt.Table(16))
	}
	if *table {
		fmt.Fprintln(out)
		fmt.Fprint(out, tr.Table())
	}
	warnIfDropped(errW, tr.Dropped())
	if jsonFlush != nil {
		if err := jsonFlush(); err != nil {
			return fmt.Errorf("writing %s: %w", *jsonFile, err)
		}
	}
	return nil
}

// warnIfDropped reports tracer drops on the warning stream: a truncated
// timeline silently missing its tail is worse than a noisy one.
func warnIfDropped(errW io.Writer, dropped int64) {
	if dropped > 0 {
		fmt.Fprintf(errW, "lsbtrace: warning: %d events dropped after the tracer's %d-event limit; the timeline is truncated\n", dropped, trace.DefaultLimit)
	}
}
