package lowsensing_test

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"lowsensing"
)

// sameResult compares the scalar and accumulator parts of two results.
func sameResult(a, b lowsensing.Result) bool {
	return a.Arrived == b.Arrived && a.Completed == b.Completed &&
		a.ActiveSlots == b.ActiveSlots && a.JammedSlots == b.JammedSlots &&
		a.LastSlot == b.LastSlot && a.Truncated == b.Truncated &&
		a.Energy == b.Energy
}

// TestScenarioJSONRoundTrip is the acceptance contract: marshal →
// unmarshal → identical run output, for scenarios covering every spec
// branch.
func TestScenarioJSONRoundTrip(t *testing.T) {
	scenarios := map[string]lowsensing.Scenario{
		"batch-default": {
			Seed:     1,
			Arrivals: lowsensing.BatchArrivals(64),
		},
		"bernoulli-beb-burst": {
			Seed:     7,
			Arrivals: lowsensing.BernoulliArrivals(0.1, 200),
			Protocol: lowsensing.BEB(),
			Jammer:   lowsensing.BurstJamming(0, 64),
		},
		"poisson-lsb-random-jam": {
			Seed:     11,
			MaxSlots: 1 << 18,
			Arrivals: lowsensing.PoissonArrivals(0.2, 300),
			Protocol: lowsensing.LowSensing(lowsensing.Config{C: 1, WMin: 128, LnPower: 3}),
			Jammer:   lowsensing.RandomJamming(0.1, 50),
		},
		"aqt-sawtooth": {
			Seed:     13,
			Arrivals: lowsensing.QueueArrivals(128, 0.2, 4),
			Protocol: lowsensing.Sawtooth(),
			MaxSlots: 1 << 18,
		},
		"reactive-retained": {
			Seed:          3,
			Arrivals:      lowsensing.BatchArrivals(32),
			Jammer:        lowsensing.ReactiveJamming(0, 8),
			RetainPackets: true,
		},
	}
	for name, sc := range scenarios {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(sc)
			if err != nil {
				t.Fatal(err)
			}
			back, err := lowsensing.ParseScenario(data)
			if err != nil {
				t.Fatalf("round trip of %s failed: %v", data, err)
			}
			if !reflect.DeepEqual(back, sc) {
				t.Fatalf("scenario changed through JSON:\n%+v\nvs\n%+v\n(json: %s)", back, sc, data)
			}
			want, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(want, got) {
				t.Fatalf("round-tripped scenario runs differently:\n%+v\nvs\n%+v", got, want)
			}
			if sc.RetainPackets && len(got.Packets) != int(got.Arrived) {
				t.Fatalf("retained %d of %d packets", len(got.Packets), got.Arrived)
			}
		})
	}
}

// TestScenarioMatchesOptions: a scenario and the equivalent option-built
// simulation are the same run, and Simulation.Scenario round-trips the
// options back into the spec.
func TestScenarioMatchesOptions(t *testing.T) {
	sc := lowsensing.Scenario{
		Seed:     9,
		Arrivals: lowsensing.BernoulliArrivals(0.15, 256),
		Protocol: lowsensing.BEB(),
		Jammer:   lowsensing.RandomJamming(0.1, 0),
		MaxSlots: 1 << 19,
	}
	fromOpts := lowsensing.NewSimulation(
		lowsensing.WithSeed(9),
		lowsensing.WithBernoulliArrivals(0.15, 256),
		lowsensing.WithBinaryExponentialBackoff(),
		lowsensing.WithRandomJamming(0.1, 0),
		lowsensing.WithMaxSlots(1<<19),
	)
	if got := fromOpts.Scenario(); !reflect.DeepEqual(got, sc) {
		t.Fatalf("options did not reduce to the scenario:\n%+v\nvs\n%+v", got, sc)
	}
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromOpts.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(a, b) {
		t.Fatalf("scenario and option runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestScenarioRerun: scenario-backed simulations reconstruct every
// component per Run, so running twice is allowed and identical.
func TestScenarioRerun(t *testing.T) {
	sc := lowsensing.Scenario{
		Seed:     5,
		Arrivals: lowsensing.PoissonArrivals(0.2, 100),
		Jammer:   lowsensing.RandomJamming(0.2, 0),
	}
	sim := sc.Simulation()
	a, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run()
	if err != nil {
		t.Fatalf("second Run of a scenario-backed simulation failed: %v", err)
	}
	if !sameResult(a, b) {
		t.Fatalf("re-run differs:\n%+v\nvs\n%+v", a, b)
	}
}

func TestScenarioValidate(t *testing.T) {
	bad := []lowsensing.Scenario{
		{},                                      // no arrivals
		{Arrivals: lowsensing.BatchArrivals(0)}, // empty batch
		{Arrivals: lowsensing.BernoulliArrivals(2, 10)},                                                                         // rate > 1
		{Arrivals: lowsensing.ArrivalsSpec{Kind: "nope"}},                                                                       // unknown kind
		{Arrivals: lowsensing.BatchArrivals(8), Protocol: lowsensing.ProtocolSpec{Kind: "nope"}},                                // unknown protocol
		{Arrivals: lowsensing.BatchArrivals(8), Protocol: lowsensing.LowSensing(lowsensing.Config{C: 10, WMin: 8, LnPower: 3})}, // invalid lsb params
		{Arrivals: lowsensing.BatchArrivals(8), Jammer: lowsensing.JammerSpec{Kind: "nope"}},                                    // unknown jammer
		{Arrivals: lowsensing.BatchArrivals(8), Jammer: lowsensing.BurstJamming(5, 5)},                                          // empty burst
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Fatalf("bad scenario %d accepted: %+v", i, sc)
		}
		if _, err := sc.Run(); err == nil {
			t.Fatalf("bad scenario %d ran: %+v", i, sc)
		}
	}
	good := lowsensing.Scenario{Arrivals: lowsensing.BatchArrivals(8)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseScenarioStrict(t *testing.T) {
	if _, err := lowsensing.ParseScenario([]byte(`{"arrivals": {"kind": "batch", "n": 8}, "typo_field": 1}`)); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
	if _, err := lowsensing.ParseScenario([]byte(`{"arrivals": {"kind": "batch", "count": 8}}`)); err == nil {
		t.Fatal("unknown nested field accepted")
	}
	if _, err := lowsensing.ParseScenario([]byte(`{"arrivals": {"kind": "batch"}}`)); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	// The retired batch-resolver switch fails loudly rather than being
	// silently ignored.
	_, err := lowsensing.ParseScenario([]byte(`{"arrivals": {"kind": "batch", "n": 8}, "disable_batching": true}`))
	if err == nil || !strings.Contains(err.Error(), "disable_batching") {
		t.Fatalf("retired disable_batching field: got %v, want an error naming it", err)
	}
	sc, err := lowsensing.ParseScenario([]byte(`{
		"seed": 1,
		"arrivals": {"kind": "batch", "n": 32},
		"protocol": {"kind": "lsb"},
		"jammer": {"kind": "burst", "to": 64}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 32 || r.JammedSlots == 0 {
		t.Fatalf("parsed scenario result: %+v", r)
	}
}

// TestProtocolSpecKinds runs every protocol kind end to end on a small
// batch through the declarative surface.
func TestProtocolSpecKinds(t *testing.T) {
	protos := []lowsensing.ProtocolSpec{
		{}, // default = LSB
		lowsensing.LowSensing(lowsensing.DefaultConfig()),
		lowsensing.BEB(),
		lowsensing.MWU(),
		lowsensing.Sawtooth(),
		lowsensing.Aloha(1.0 / 32),
		lowsensing.Poly(2, 2),
		lowsensing.GenieAloha(),
	}
	for _, p := range protos {
		sc := lowsensing.Scenario{
			Seed:     2,
			Arrivals: lowsensing.BatchArrivals(32),
			Protocol: p,
			MaxSlots: 1 << 18,
		}
		r, err := sc.Run()
		if err != nil {
			t.Fatalf("%q: %v", p.Kind, err)
		}
		if r.Completed == 0 {
			t.Fatalf("%q delivered nothing", p.Kind)
		}
	}
}

// TestSimulationReuse is the regression test for the latent reuse bug:
// WithArrivals/WithJammer close over stateful instances, so a second Run
// would silently reuse an exhausted source or spent jam budget. It must
// fail with ErrReused instead.
func TestSimulationReuse(t *testing.T) {
	base := lowsensing.Scenario{Seed: 3, Arrivals: lowsensing.BatchArrivals(16)}
	mkArrivals := func() lowsensing.ArrivalSource {
		s, err := base.Arrivals.Source(3)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sim := lowsensing.NewSimulation(
		lowsensing.WithSeed(3),
		lowsensing.WithArrivals(mkArrivals()),
	)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); !errors.Is(err, lowsensing.ErrReused) {
		t.Fatalf("second Run with a custom arrival source: err = %v, want ErrReused", err)
	}

	// Stateful jammer: budget spent by the first run.
	jam, err2 := lowsensing.ReactiveJamming(0, 8).Jammer(3)
	if err2 != nil {
		t.Fatal(err2)
	}
	sim2 := lowsensing.NewSimulation(
		lowsensing.WithSeed(3),
		lowsensing.WithBatchArrivals(16),
		lowsensing.WithJammer(jam),
	)
	if _, err := sim2.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim2.Run(); !errors.Is(err, lowsensing.ErrReused) {
		t.Fatalf("second Run with a custom jammer: err = %v, want ErrReused", err)
	}
	if !strings.Contains(lowsensing.ErrReused.Error(), "Scenario") {
		t.Fatal("ErrReused should point at the Scenario escape hatch")
	}

	// A failed Run consumes nothing, so retries keep reporting the real
	// configuration error instead of ErrReused.
	jam2, err := lowsensing.ReactiveJamming(0, 8).Jammer(3)
	if err != nil {
		t.Fatal(err)
	}
	broken := lowsensing.NewSimulation(lowsensing.WithJammer(jam2)) // no arrivals
	for i := 0; i < 2; i++ {
		_, err := broken.Run()
		if err == nil {
			t.Fatal("misconfigured simulation ran")
		}
		if errors.Is(err, lowsensing.ErrReused) {
			t.Fatalf("attempt %d: configuration error masked by ErrReused", i)
		}
	}

	// Spec-configured simulations rebuild their components and may re-run.
	sim3 := lowsensing.NewSimulation(lowsensing.WithSeed(3), lowsensing.WithBatchArrivals(16), lowsensing.WithReactiveJamming(0, 8))
	a, err := sim3.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim3.Run()
	if err != nil {
		t.Fatalf("spec-backed simulation refused to re-run: %v", err)
	}
	if !sameResult(a, b) {
		t.Fatal("spec-backed re-run differs")
	}
}
