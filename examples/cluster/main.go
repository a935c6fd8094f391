// Cluster simulation: the paper analyzes one shared channel; real
// deployments shard traffic across many. This example runs the same
// workload — 2000 Poisson packets under light random jamming — over a
// 16-channel cluster once per built-in routing policy, and compares what
// routing does to fairness, throughput, and per-packet energy when every
// channel runs LOW-SENSING BACKOFF.
//
// It then re-runs the round-robin cluster observed: obs.ByChannel gives
// each channel a windowed time-series, and obs.MergeWindowSeries rolls
// them up into one cluster-wide series.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"lowsensing"
	"lowsensing/obs"
)

// scenario is an ordinary Scenario; Channels makes it a cluster, whose
// Result carries the per-channel breakdown next to the merged totals.
func scenario(router lowsensing.RouterSpec) lowsensing.Scenario {
	return lowsensing.Scenario{
		Seed:     7,
		Channels: 16,
		Arrivals: lowsensing.PoissonArrivals(0.5, 2000),
		Jammer:   lowsensing.RandomJamming(0.05, 400),
		Router:   router,
	}
}

func main() {
	log.SetFlags(0)

	fmt.Println("16-channel cluster, 2000 Poisson packets, LSB on every channel")
	fmt.Printf("\n%-14s %9s %9s %10s %9s %9s\n",
		"router", "delivered", "fairness", "throughput", "meanAcc", "p99Acc")
	for _, router := range []lowsensing.RouterSpec{
		{Kind: lowsensing.RouterRandom},
		{Kind: lowsensing.RouterRoundRobin},
		{Kind: lowsensing.RouterLeastBacklog},
		lowsensing.StickyRouting(64),
	} {
		r, err := scenario(router).Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %9d %9.4f %10.4f %9.1f %9.0f\n",
			router.Kind, r.Completed, r.ChannelFairness, r.Throughput(),
			r.Energy.Accesses.Mean(), r.Energy.Accesses.Quantile(0.99))
	}

	// Observed run: one windowed accumulator per channel. Run leaves the
	// flush that closes every channel's last window to the caller.
	sc := scenario(lowsensing.RouterSpec{Kind: lowsensing.RouterRoundRobin})
	wins := make([]*obs.Windows, sc.Channels)
	recs := make([]lowsensing.Recorder, sc.Channels)
	for ch := range wins {
		wins[ch] = obs.NewWindows(1024, nil)
		recs[ch] = wins[ch]
	}
	demux := obs.ByChannel(recs...)
	r, err := sc.Simulation(lowsensing.WithRecorder(demux)).Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.Flush(demux); err != nil {
		log.Fatal(err)
	}
	series := make([][]obs.WindowStat, sc.Channels)
	for ch, w := range wins {
		series[ch] = w.Stats()
	}
	merged := obs.MergeWindowSeries(series...)

	fmt.Printf("\nround-robin cluster, merged %d-slot windows (%d channels summed):\n",
		1024, sc.Channels)
	fmt.Printf("%-8s %9s %10s %9s %8s\n", "window", "departed", "throughput", "backlog", "jamrate")
	var departed int64
	for _, ws := range merged {
		departed += ws.Departures
		fmt.Printf("%-8d %9d %10.4f %9d %8.3f\n",
			ws.Index, ws.Departures, ws.Throughput(), ws.Backlog, ws.JamRate())
	}
	if departed != r.Completed {
		log.Fatalf("window roll-up lost packets: %d vs %d", departed, r.Completed)
	}
	fmt.Printf("\nevery one of the %d delivered packets is in exactly one merged window\n",
		r.Completed)
}
