// Quickstart: resolve a batch of 1024 contending packets with LOW-SENSING
// BACKOFF and compare against binary exponential backoff.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"lowsensing"
)

func main() {
	log.SetFlags(0)

	const n = 1024

	// LOW-SENSING BACKOFF with the paper's default parameters.
	lsb, err := lowsensing.Scenario{
		Seed:     1,
		Arrivals: lowsensing.BatchArrivals(n),
	}.Run()
	if err != nil {
		log.Fatal(err)
	}

	// The classic baseline.
	beb, err := lowsensing.Scenario{
		Seed:     1,
		Arrivals: lowsensing.BatchArrivals(n),
		Protocol: lowsensing.BEB(),
	}.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("batch of %d packets\n\n", n)
	for _, row := range []struct {
		name string
		r    lowsensing.Result
	}{{"LOW-SENSING BACKOFF", lsb}, {"binary exp. backoff", beb}} {
		es := lowsensing.SummarizeEnergy(row.r)
		fmt.Printf("%-20s throughput %.3f   slots %6d   accesses/pkt mean %6.1f max %5.0f\n",
			row.name, row.r.Throughput(), row.r.ActiveSlots, es.Accesses.Mean, es.Accesses.Max)
	}
	fmt.Println("\nLSB keeps constant throughput with polylog per-packet channel accesses;")
	fmt.Println("BEB burns fewer accesses but its throughput decays like 1/ln N as N grows.")
}
