package lowsensing_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lowsensing"
	"lowsensing/prng"
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
			Seed:     3,
			Arrivals: lowsensing.BatchArrivals(32),
			Jammer:   lowsensing.ReactiveJamming(0, 8),
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
		})
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
	// Retired fields (the batch-resolver switch, per-packet retention)
	// fail loudly rather than being silently ignored.
	for _, field := range []string{"disable_batching", "retain_packets"} {
		_, err := lowsensing.ParseScenario([]byte(`{"arrivals": {"kind": "batch", "n": 8}, "` + field + `": true}`))
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("retired %s field: got %v, want an error naming it", field, err)
		}
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

// TestParseScenarioFileArrivals resolves the "file" arrival kind through
// a parsed spec: the trace's first line is the first batch, and a path
// that does not exist fails validation.
func TestParseScenarioFileArrivals(t *testing.T) {
	dir := t.TempDir()
	spec := func(path string) []byte {
		p, err := json.Marshal(path)
		if err != nil {
			t.Fatal(err)
		}
		return []byte(`{"arrivals": {"kind": "file", "path": ` + string(p) + `}}`)
	}
	path := filepath.Join(dir, "trace.txt")
	if err := os.WriteFile(path, []byte("0 3\n10 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := lowsensing.ParseScenario(spec(path))
	if err != nil {
		t.Fatal(err)
	}
	src, err := sc.Arrivals.Source(sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if slot, count, ok := src.Next(); !ok || slot != 0 || count != 3 {
		t.Fatalf("first batch = (%d,%d,%v), want (0,3,true)", slot, count, ok)
	}
	if _, err := lowsensing.ParseScenario(spec(filepath.Join(dir, "missing.txt"))); err == nil {
		t.Fatal("missing trace file accepted")
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
	sim := lowsensing.Scenario{Seed: 3}.Simulation(lowsensing.WithArrivals(mkArrivals()))
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
	sim2 := base.Simulation(lowsensing.WithJammer(jam))
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
	broken := lowsensing.Scenario{}.Simulation(lowsensing.WithJammer(jam2)) // no arrivals
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
	sim3 := lowsensing.Scenario{
		Seed:     3,
		Arrivals: lowsensing.BatchArrivals(16),
		Jammer:   lowsensing.ReactiveJamming(0, 8),
	}.Simulation()
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

// TestCustomInstancesOverrideScenario: a custom instance takes precedence
// over the scenario field it stands in for, and still makes the
// Simulation single-use.
func TestCustomInstancesOverrideScenario(t *testing.T) {
	lsb, err := lowsensing.LowSensing(lowsensing.DefaultConfig()).Factory()
	if err != nil {
		t.Fatal(err)
	}
	var built int
	f := func(id int64, rng *prng.Source) lowsensing.Station {
		built++
		return lsb(id, rng)
	}
	src, err := lowsensing.BatchArrivals(4).Source(1)
	if err != nil {
		t.Fatal(err)
	}
	sim := lowsensing.Scenario{
		Seed:     1,
		Protocol: lowsensing.BEB(),
		Arrivals: lowsensing.BatchArrivals(8),
	}.Simulation(lowsensing.WithStations(f), lowsensing.WithArrivals(src))
	got, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// f's LOW-SENSING stations over src's 4-packet batch, not BEB over 8.
	want, err := lowsensing.Scenario{Seed: 1, Arrivals: lowsensing.BatchArrivals(4)}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if built != 4 || !sameResult(got, want) {
		t.Fatalf("built %d stations; run\n%+v\nwant the LSB batch-4 run\n%+v", built, got, want)
	}
	if _, err := sim.Run(); !errors.Is(err, lowsensing.ErrReused) {
		t.Fatalf("second Run with custom instances: err = %v, want ErrReused", err)
	}
}

// TestConcurrentLSBScenariosMatchSerial runs two LSB scenarios, one on a
// single channel and one on a cluster, at the same time and compares each
// result with a serial run's. An LSB factory carries a window memo its
// packets write, so each run must resolve its own factory; under -race this
// test catches a factory shared between concurrent runs.
func TestConcurrentLSBScenariosMatchSerial(t *testing.T) {
	scenarios := []lowsensing.Scenario{
		{Seed: 3, Arrivals: lowsensing.PoissonArrivals(0.2, 2000), Jammer: lowsensing.RandomJamming(0.1, 0)},
		{Seed: 5, Arrivals: lowsensing.BatchArrivals(1024), Channels: 4, Router: lowsensing.StickyRouting(16)},
	}
	want := make([]lowsensing.Result, len(scenarios))
	for i, sc := range scenarios {
		var err error
		if want[i], err = sc.Run(); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]lowsensing.Result, len(scenarios))
	errs := make([]error, len(scenarios))
	var wg sync.WaitGroup
	for i, sc := range scenarios {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = sc.Run()
		}()
	}
	wg.Wait()
	for i := range scenarios {
		if errs[i] != nil {
			t.Fatalf("scenario %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("scenario %d: concurrent run differs from the serial run", i)
		}
	}
}
