// Jamming attack: a WiFi-like channel serves a steady packet stream when a
// jammer floods the medium for a stretch of slots. The example shows the
// paper's robustness claim in action — throughput accounting (T+J)/S stays
// healthy, backlog stays bounded, and the system drains the moment the
// attack stops — and contrasts a reactive attacker that targets a single
// victim packet.
//
// Run with:
//
//	go run ./examples/jamming_attack
package main

import (
	"fmt"
	"log"

	"lowsensing"
	"lowsensing/internal/plot"
	"lowsensing/obs"
)

func main() {
	log.SetFlags(0)

	const (
		seed     = 11
		packets  = 2000
		rate     = 0.05 // Bernoulli arrivals per slot
		jamStart = 5000
		jamEnd   = 15000 // 10k jammed slots mid-run
	)

	// Scenario 1: broadband burst attack in the middle of the run.
	col := &lowsensing.Collector{Every: 500}
	res, err := lowsensing.Scenario{
		Seed:     seed,
		Arrivals: lowsensing.BernoulliArrivals(rate, packets),
		Jammer:   lowsensing.BurstJamming(jamStart, jamEnd),
	}.Simulation(lowsensing.WithRecorder(col)).Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("burst attack: %d packets, jammer floods slots [%d,%d)\n", packets, jamStart, jamEnd)
	fmt.Printf("  delivered %d/%d, jammed slots %d, throughput (T+J)/S = %.3f\n\n",
		res.Completed, res.Arrived, res.JammedSlots, res.Throughput())
	fmt.Println("  backlog over time (sampled):")
	samples := col.Samples()
	step := len(samples) / 12
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(samples); i += step {
		s := samples[i]
		phase := "   "
		if s.Slot >= jamStart && s.Slot < jamEnd {
			phase = "JAM"
		}
		fmt.Printf("    slot %7d %s backlog %4d  implicit throughput %.3f\n",
			s.Slot, phase, s.Backlog, s.ImplicitThroughput)
	}

	fmt.Println()
	fmt.Println(plot.New("backlog during the attack (x=slot)", 72, 12).
		YLabel("backlog").
		XLabel("slot").
		Add("backlog", '*', col.Series("slot"), col.Series("backlog")).
		Render())

	// Scenario 2: reactive attacker with a budget, aimed at packet 0. The
	// victim's stats stream out through a packet recorder — default runs
	// keep no per-packet table.
	var victim lowsensing.PacketStats
	res2, err := lowsensing.Scenario{
		Seed:     seed,
		Arrivals: lowsensing.BatchArrivals(512),
		Jammer:   lowsensing.ReactiveJamming(0, 64),
	}.Simulation(lowsensing.WithRecorder(obs.PacketFunc(func(p lowsensing.PacketStats) {
		if p.ID == 0 {
			victim = p
		}
	}))).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreactive attack: jam packet 0's first 64 transmissions (N=512 batch)\n")
	fmt.Printf("  delivered %d/%d; victim made %d accesses vs fleet mean %.1f\n",
		res2.Completed, res2.Arrived, victim.Accesses(), res2.MeanAccesses())
	fmt.Println("  the victim pays for the jamming, but the average stays polylog (Thm 1.9).")
}
