package lowsensing_test

import (
	"fmt"

	"lowsensing"
)

// The canonical entry point: resolve a batch of contending packets and read
// off throughput and energy.
func ExampleScenario_Simulation() {
	res, err := lowsensing.Scenario{
		Seed:     1,
		Arrivals: lowsensing.BatchArrivals(64),
	}.Simulation().Run()
	if err != nil {
		panic(err)
	}
	fmt.Println("delivered:", res.Completed)
	fmt.Println("throughput above 0.1:", res.Throughput() > 0.1)
	// Output:
	// delivered: 64
	// throughput above 0.1: true
}

// Jamming robustness: a burst jammer floods the first 256 slots; every
// packet still gets through and the jammed slots are credited by the
// paper's (T+J)/S metric.
func ExampleBurstJamming() {
	res, err := lowsensing.Scenario{
		Seed:     3,
		Arrivals: lowsensing.BatchArrivals(32),
		Jammer:   lowsensing.BurstJamming(0, 256),
	}.Run()
	if err != nil {
		panic(err)
	}
	fmt.Println("delivered:", res.Completed)
	fmt.Println("jammed slots:", res.JammedSlots > 0)
	// Output:
	// delivered: 32
	// jammed slots: true
}

// Per-packet energy: the point of the paper is that accesses (sends +
// listens) stay polylogarithmic in the number of packets.
func ExampleSummarizeEnergy() {
	res, err := lowsensing.Scenario{
		Seed:     1,
		Arrivals: lowsensing.BatchArrivals(256),
	}.Run()
	if err != nil {
		panic(err)
	}
	es := lowsensing.SummarizeEnergy(res)
	// ln(256)^3 ≈ 171; the mean access count sits well under it.
	fmt.Println("undelivered:", es.Undelivered)
	fmt.Println("mean accesses under ln^3 N:", es.Accesses.Mean < 171)
	// Output:
	// undelivered: 0
	// mean accesses under ln^3 N: true
}

// Declarative single runs: a Scenario is pure data, JSON round-trippable,
// and reconstructs every component per Run — specs can live in files.
func ExampleParseScenario() {
	sc, err := lowsensing.ParseScenario([]byte(`{
		"seed": 1,
		"arrivals": {"kind": "batch", "n": 64},
		"jammer":   {"kind": "burst", "to": 128}
	}`))
	if err != nil {
		panic(err)
	}
	res, err := sc.Run()
	if err != nil {
		panic(err)
	}
	fmt.Println("delivered:", res.Completed)
	fmt.Println("jammed slots:", res.JammedSlots > 0)
	// Output:
	// delivered: 64
	// jammed slots: true
}

// Declarative multi-run experiments: a SweepSpec describes a parameter
// grid, and the Sweep it builds executes every (point, replication) pair on
// a worker pool with deterministic per-job seeding, aggregating each point
// with streaming statistics — the output is identical whatever Workers is
// set to.
func ExampleSweep() {
	ss, err := lowsensing.ParseSweepSpec([]byte(`{
		"id": "example",
		"seed": 1,
		"reps": 2,
		"base": {"arrivals": {"kind": "batch", "n": 32}},
		"axes": [
			{"name": "n", "variants": [
				{"label": "32"},
				{"label": "64", "patch": {"arrivals": {"n": 64}}}
			]},
			{"name": "protocol", "variants": [
				{"label": "lsb"},
				{"label": "beb", "patch": {"protocol": {"kind": "beb"}}}
			]}
		]
	}`))
	if err != nil {
		panic(err)
	}
	sw, err := ss.Sweep()
	if err != nil {
		panic(err)
	}
	results, err := sw.Run()
	if err != nil {
		panic(err)
	}
	for _, pr := range results {
		fmt.Printf("%s: delivered %d/%d, mean accesses under 100: %v\n",
			pr.Point, pr.Completed, pr.Arrived, pr.Energy.Accesses.Mean() < 100)
	}
	// Output:
	// n=32 protocol=lsb: delivered 64/64, mean accesses under 100: true
	// n=32 protocol=beb: delivered 64/64, mean accesses under 100: true
	// n=64 protocol=lsb: delivered 128/128, mean accesses under 100: true
	// n=64 protocol=beb: delivered 128/128, mean accesses under 100: true
}
