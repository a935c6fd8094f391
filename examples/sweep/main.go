// Sweep: declarative multi-run experiments through the public
// SweepSpec/Sweep API. A sweep is pure data — a base scenario, axes of
// variants that each JSON-merge-patch it, and a replication count — so the
// same spec can live in a JSON file (see cmd/experiments -spec). Every
// (point, rep) pair executes on a worker pool with deterministic per-job
// seeding, and each point is aggregated with streaming statistics (no
// per-packet retention), so the tables below are byte-identical however
// many cores run them.
//
// Run with:
//
//	go run ./examples/sweep
package main

import (
	"fmt"
	"log"

	"lowsensing"
)

// rateProtocol varies the arrival rate of a 2000-packet Bernoulli stream
// against the protocol, with 3 replications per point.
const rateProtocol = `{
	"id": "examples/sweep",
	"seed": 1,
	"reps": 3,
	"base": {"arrivals": {"kind": "bernoulli", "rate": 0.1, "n": 2000}, "max_slots": 1048576},
	"axes": [
		{"name": "rate", "variants": [
			{"label": "0.05", "patch": {"arrivals": {"rate": 0.05}}},
			{"label": "0.15", "patch": {"arrivals": {"rate": 0.15}}},
			{"label": "0.3", "patch": {"arrivals": {"rate": 0.3}}}
		]},
		{"name": "protocol", "variants": [
			{"label": "lsb"},
			{"label": "beb", "patch": {"protocol": {"kind": "beb"}}}
		]}
	]
}`

// jamming runs a batch of 512 with and without a random jammer.
const jamming = `{
	"id": "examples/sweep-json",
	"seed": 1,
	"reps": 2,
	"base": {"arrivals": {"kind": "batch", "n": 512}},
	"axes": [{"name": "jam", "variants": [
		{"label": "none"},
		{"label": "25%", "patch": {"jammer": {"kind": "random", "rate": 0.25}}}
	]}]
}`

// build parses a sweep spec and builds it; every grid point is validated
// here, so a nil error means the runs cannot fail on a malformed spec.
func build(spec string) *lowsensing.Sweep {
	ss, err := lowsensing.ParseSweepSpec([]byte(spec))
	if err != nil {
		log.Fatal(err)
	}
	sw, err := ss.Sweep()
	if err != nil {
		log.Fatal(err)
	}
	return sw
}

func main() {
	log.SetFlags(0)

	fmt.Println("rate x protocol sweep, 3 reps per point:")
	fmt.Printf("%-28s %9s %9s %9s %9s\n", "point", "tput", "delivered", "meanAcc", "p99Acc")
	err := build(rateProtocol).Stream(func(pr lowsensing.PointResult) error {
		// Points stream in grid order as their last replication lands;
		// aggregates pool all reps (quantiles included) in constant
		// memory however long the runs are.
		fmt.Printf("%-28s %9.3f %9.3f %9.1f %9.0f\n",
			pr.Point,
			pr.Throughput.Mean(),
			pr.DeliveredFrac(),
			pr.Energy.Accesses.Mean(),
			pr.Energy.Accesses.Quantile(0.99),
		)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	results, err := build(jamming).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nJSON-defined jamming sweep (batch of 512):")
	for _, pr := range results {
		fmt.Printf("%-12s throughput %.3f with %d jammed slots\n",
			pr.Point, pr.Throughput.Mean(), pr.JammedSlots)
	}
}
