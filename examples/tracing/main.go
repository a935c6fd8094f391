// Tracing: attach structured observability to a run — a bounded in-memory
// ring of recent events, an NDJSON trace of a chosen slot range, and a
// windowed time-series — all composed onto one simulation through the
// lowsensing/obs recorder pipeline, plus the engine's own self-metrics.
//
// Run with:
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"lowsensing"
	"lowsensing/obs"
)

func main() {
	log.SetFlags(0)

	const n = 512

	// Three independent consumers of the same event stream:
	//   ring    — the last 16 events of each kind, kept in memory;
	//   ndjson  — slots 0..32 serialized as NDJSON (here into a buffer,
	//             normally a file);
	//   windows — a 64-slot time-series collected for inspection.
	ring := obs.NewRing(16)
	var trace strings.Builder
	sink := obs.NewNDJSON(&trace)
	windows := obs.NewWindows(64, nil)

	r, err := lowsensing.Scenario{
		Seed:     7,
		Arrivals: lowsensing.BatchArrivals(n),
	}.Simulation(
		lowsensing.WithRecorder(ring),
		lowsensing.WithRecorder(obs.SlotRange(sink, 0, 32)),
		lowsensing.WithRecorder(windows),
	).Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.Flush(windows); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("batch of %d packets: throughput %.3f over %d active slots\n\n",
		n, r.Throughput(), r.ActiveSlots)

	// The ring holds the tail of the run: the final slots and departures.
	var glyphs []byte
	for _, ev := range ring.Slots() {
		glyphs = append(glyphs, ev.Glyph())
	}
	fmt.Printf("last %d resolved slots: %s  (%d older events dropped)\n",
		len(glyphs), glyphs, ring.Dropped())
	last := ring.Packets()[len(ring.Packets())-1]
	fmt.Printf("last departure: packet %d, latency %d slots, %d channel accesses\n\n",
		last.ID, last.Latency(), last.Accesses())

	// The NDJSON sink saw only the first 32 slots (and the packets whose
	// lifetimes intersected them).
	fmt.Printf("NDJSON trace of slots [0,32): %d lines, first line:\n  %s\n",
		sink.Lines(), trace.String()[:strings.IndexByte(trace.String(), '\n')])

	// The windowed series shows contention draining window by window.
	fmt.Println("\nwindow  slots  succ  coll  tput   backlog")
	for _, w := range windows.Stats() {
		fmt.Printf("%6d %6d %5d %5d %6.3f %8d\n",
			w.Index, w.Resolved, w.Successes, w.Collisions, w.Throughput(), w.Backlog)
	}

	// The engine's self-metrics describe how the run executed.
	es := r.EngineStats
	fmt.Printf("\nengine: %d events scheduled, %d slots resolved, peak backlog %d\n",
		es.EventsScheduled, es.SlotsResolved, es.PeakBacklog)
	fmt.Printf("        %d stations built, %d reused, %d wheel cascades\n",
		es.StationsBuilt, es.StationsReused, es.WheelCascades)

	if es.StationsBuilt == 0 {
		fmt.Fprintln(os.Stderr, "unexpected: no stations built")
		os.Exit(1)
	}
}
