package lowsensing_test

import (
	"fmt"
	"math"

	"lowsensing"
	"lowsensing/channel"
	"lowsensing/prng"
)

// fixedProb is a custom protocol: send with constant probability p every
// slot, never listen, never adapt. Implementing channel.Station is all it
// takes to run on the engine; only the prng stream may supply randomness,
// so runs stay deterministic per seed.
type fixedProb struct{ p float64 }

// ScheduleNext skips ahead geometrically to the next sending slot — the
// same distribution as flipping a p-coin every slot, at O(1) cost.
func (f fixedProb) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	gap := int64(math.Log(rng.Float64Open())/math.Log1p(-f.p)) + 1
	return from + gap - 1, true
}

func (f fixedProb) Observe(channel.Observation) {}

// Registration happens at init time, once per process; registering the
// same kind twice panics. The factory reads its parameters from
// spec.Params (with a default, so a bare {"kind": "fixedprob"} spec works
// and the kind is picked up by the module's cross-protocol invariant
// tests for free).
func init() {
	lowsensing.RegisterProtocol("fixedprob",
		"sends with constant probability p every slot (params: p, default 1/16)",
		func(spec lowsensing.ProtocolSpec) (lowsensing.StationFactory, error) {
			p := 1.0 / 16
			if v, ok := spec.Params["p"]; ok {
				p = v
			}
			if !(p > 0 && p <= 1) {
				return nil, fmt.Errorf("fixedprob: p must be in (0,1], got %v", p)
			}
			return func(int64, *prng.Source) lowsensing.Station {
				return fixedProb{p: p}
			}, nil
		})
}

// Registering a protocol kind makes it a first-class citizen of the
// declarative layer: JSON scenarios, sweep axes, and the CLIs resolve it
// exactly like the built-ins.
func ExampleRegisterProtocol() {
	// From a JSON spec, as a scenario file would say it.
	sc, err := lowsensing.ParseScenario([]byte(`{
		"seed": 2,
		"arrivals": {"kind": "batch", "n": 16},
		"protocol": {"kind": "fixedprob", "params": {"p": 0.0625}}
	}`))
	if err != nil {
		panic(err)
	}
	res, err := sc.Run()
	if err != nil {
		panic(err)
	}
	fmt.Println("delivered:", res.Completed)

	// And as a sweep axis against the built-in default (LSB).
	ss, err := lowsensing.ParseSweepSpec([]byte(`{
		"id": "register-example",
		"seed": 2,
		"base": {"arrivals": {"kind": "batch", "n": 16}},
		"axes": [{"name": "protocol", "variants": [
			{"label": "lsb"},
			{"label": "fixedprob", "patch": {"protocol": {"kind": "fixedprob"}}}
		]}]
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
		fmt.Printf("%s: delivered %d/%d\n", pr.Point, pr.Completed, pr.Arrived)
	}
	// Output:
	// delivered: 16
	// protocol=lsb: delivered 16/16
	// protocol=fixedprob: delivered 16/16
}
