package lowsensing_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lowsensing"
)

// Tests for the robustness layer's declarative surface: churn and fault
// specs on Scenario, multi-class workloads, graceful-degradation reporting,
// and the conservation identity every churned run must satisfy —
//
//	Arrived == Completed + Abandoned + Energy.Undelivered
//
// (abandoned packets leave through churn; Undelivered counts end-of-run
// survivors of truncated runs). The bit-exactness of the engine under churn
// and faults is pinned separately by the differential suite in
// internal/simref.

func checkConservation(t *testing.T, r lowsensing.Result) {
	t.Helper()
	if r.Completed+r.Abandoned+r.Energy.Undelivered != r.Arrived {
		t.Fatalf("conservation broken: completed %d + abandoned %d + undelivered %d != arrived %d",
			r.Completed, r.Abandoned, r.Energy.Undelivered, r.Arrived)
	}
	if r.Energy.Abandoned != r.Abandoned {
		t.Fatalf("energy accumulator saw %d abandoned packets, result says %d",
			r.Energy.Abandoned, r.Abandoned)
	}
}

func TestScenarioChurn(t *testing.T) {
	sc := lowsensing.Scenario{
		Seed:     3,
		Arrivals: lowsensing.BatchArrivals(16),
		Churn:    lowsensing.PoissonChurn(0.08, 40, 0.03),
		MaxSlots: 1 << 14,
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Abandoned == 0 {
		t.Fatal("geometric patience churn abandoned nothing; the scenario is not exercising churn")
	}
	if res.Arrived <= 16 {
		t.Fatalf("churn joins did not arrive: %d packets total", res.Arrived)
	}
	checkConservation(t, res)
}

func TestScenarioFaults(t *testing.T) {
	sc := lowsensing.Scenario{
		Seed:     5,
		Arrivals: lowsensing.BatchArrivals(24),
		Faults:   lowsensing.FlakyFaults(0.15, 0.1, 0.04, 6),
		MaxSlots: 1 << 15,
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Corrupted == 0 {
		t.Fatal("flaky faults corrupted no observations")
	}
	if res.Faults.FalseBusy+res.Faults.FalseIdle != res.Faults.Corrupted {
		t.Fatalf("fault counters inconsistent: %+v", res.Faults)
	}
	if res.Faults.Crashes == 0 {
		t.Fatal("flaky faults crashed no stations")
	}
	checkConservation(t, res)
}

// TestRegisteredProtocolChurnConservation runs every registered protocol
// kind under join/leave churn and checks determinism plus the conservation
// identity. Like TestRegisteredProtocolInvariants, kinds whose bare spec is
// not constructible use a fallback or are skipped.
func TestRegisteredProtocolChurnConservation(t *testing.T) {
	const n = 24
	fallback := map[string]lowsensing.ProtocolSpec{
		lowsensing.ProtocolAloha: lowsensing.Aloha(1.0 / n),
	}
	for _, kd := range lowsensing.ProtocolKinds() {
		kd := kd
		t.Run(kd.Kind, func(t *testing.T) {
			spec := lowsensing.ProtocolSpec{Kind: kd.Kind}
			if _, err := spec.Factory(); err != nil {
				fb, ok := fallback[kd.Kind]
				if !ok {
					t.Skipf("bare spec not constructible and no fallback: %v", err)
				}
				spec = fb
			}
			sc := lowsensing.Scenario{
				Seed:     11,
				Arrivals: lowsensing.BatchArrivals(n),
				Protocol: spec,
				Churn:    lowsensing.PoissonChurn(0.1, 32, 0.05),
				MaxSlots: 1 << 14,
			}
			r1, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			r2, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("same seed, different results under churn:\n%+v\nvs\n%+v", r1, r2)
			}
			if r1.Abandoned == 0 {
				t.Fatal("churn abandoned nothing; the conservation check is vacuous")
			}
			checkConservation(t, r1)
			if got := r1.Energy.Packets(); got != r1.Arrived {
				t.Fatalf("accumulators cover %d packets, want %d", got, r1.Arrived)
			}
		})
	}
}

func multiclassScenario() lowsensing.Scenario {
	return lowsensing.Scenario{
		Seed:     9,
		MaxSlots: 1 << 14,
		Classes: []lowsensing.ClassSpec{
			{
				// Sensing faults go on the class that actually listens: LSB
				// is low-sensing, BEB is fully oblivious.
				Name:     "steady-lsb",
				Arrivals: lowsensing.BatchArrivals(20),
				Faults:   lowsensing.SensingFaults(0.2, 0.1),
			},
			{
				Name:     "bursty-beb",
				Arrivals: lowsensing.BernoulliArrivals(0.03, 20),
				Protocol: lowsensing.ProtocolSpec{Kind: lowsensing.ProtocolBEB},
				Churn:    lowsensing.FlashCrowdChurn(64, 12, 400),
			},
		},
	}
}

func TestScenarioMulticlass(t *testing.T) {
	sc := multiclassScenario()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 2 {
		t.Fatalf("got %d class results, want 2", len(res.Classes))
	}
	if res.Classes[0].Name != "steady-lsb" || res.Classes[1].Name != "bursty-beb" {
		t.Fatalf("class names wrong: %q, %q", res.Classes[0].Name, res.Classes[1].Name)
	}
	var arrived, completed, abandoned int64
	for _, cr := range res.Classes {
		if cr.Completed+cr.Abandoned+cr.Survivors != cr.Arrived {
			t.Fatalf("class %q conservation broken: %+v", cr.Name, cr)
		}
		arrived += cr.Arrived
		completed += cr.Completed
		abandoned += cr.Abandoned
	}
	if arrived != res.Arrived || completed != res.Completed || abandoned != res.Abandoned {
		t.Fatalf("class totals (%d, %d, %d) disagree with run totals (%d, %d, %d)",
			arrived, completed, abandoned, res.Arrived, res.Completed, res.Abandoned)
	}
	if res.Faults.Corrupted == 0 {
		t.Fatal("sensing faults on the LSB class corrupted nothing")
	}
	if !(res.ClassFairness > 0 && res.ClassFairness <= 1) {
		t.Fatalf("class fairness %v outside (0, 1]", res.ClassFairness)
	}
	checkConservation(t, res)

	res2, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatalf("multiclass run not deterministic:\n%+v\nvs\n%+v", res, res2)
	}
}

func TestRunWithBaseline(t *testing.T) {
	t.Run("multiclass", func(t *testing.T) {
		sc := multiclassScenario()
		res, err := sc.RunWithBaseline()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Degradation) != len(sc.Classes) {
			t.Fatalf("got %d degradation rows, want %d", len(res.Degradation), len(sc.Classes))
		}
		for i, d := range res.Degradation {
			if d.Name != sc.Classes[i].Name {
				t.Fatalf("degradation row %d named %q, want %q", i, d.Name, sc.Classes[i].Name)
			}
			if d.Delta != d.DeliveredFrac-d.BaselineDeliveredFrac {
				t.Fatalf("row %q delta %v != %v - %v", d.Name, d.Delta, d.DeliveredFrac, d.BaselineDeliveredFrac)
			}
		}
		// The fault-free class must match its baseline exactly: stripping
		// churn and faults from OTHER classes must not perturb it (per-class
		// seeds are independent)... except through channel contention, so we
		// only require the baseline fractions to be sane.
		for _, d := range res.Degradation {
			if !(d.BaselineDeliveredFrac >= 0 && d.BaselineDeliveredFrac <= 1) {
				t.Fatalf("baseline delivered fraction %v outside [0, 1]", d.BaselineDeliveredFrac)
			}
		}
	})
	t.Run("classless", func(t *testing.T) {
		sc := lowsensing.Scenario{
			Seed:     4,
			Arrivals: lowsensing.BatchArrivals(16),
			Faults:   lowsensing.SensingFaults(0.25, 0.1),
			MaxSlots: 1 << 15,
		}
		res, err := sc.RunWithBaseline()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Degradation) != 1 || res.Degradation[0].Name != "" {
			t.Fatalf("classless degradation: %+v", res.Degradation)
		}
		base := sc.FaultFree()
		if base.Faults.Kind != "" || base.Churn.Kind != "" {
			t.Fatalf("FaultFree left specs behind: %+v", base)
		}
		bres, err := base.Run()
		if err != nil {
			t.Fatal(err)
		}
		if bres.Faults != (lowsensing.FaultStats{}) {
			t.Fatalf("fault-free baseline injected faults: %+v", bres.Faults)
		}
		if got := res.Degradation[0].BaselineDeliveredFrac; bres.Arrived > 0 &&
			got != float64(bres.Completed)/float64(bres.Arrived) {
			t.Fatalf("baseline fraction %v does not match the baseline run", got)
		}
	})
}

// TestRobustnessSpecRoundTrip pins the strict-JSON round trip for scenarios
// carrying churn, fault, and class specs: marshal → ParseScenario must
// reproduce the value exactly (omitzero/omitempty tags keep zero specs out
// of the encoding, so fault-free files stay byte-compatible with the seed).
func TestRobustnessSpecRoundTrip(t *testing.T) {
	scenarios := []lowsensing.Scenario{
		{
			Seed:     1,
			Arrivals: lowsensing.BatchArrivals(8),
			Churn:    lowsensing.FlashCrowdChurn(10, 6, 100),
			Faults:   lowsensing.CrashFaults(0.02, 4),
			MaxSlots: 1 << 12,
		},
		{
			Seed:     2,
			Arrivals: lowsensing.BernoulliArrivals(0.1, 16),
			Churn:    lowsensing.EpochChurn(128),
		},
		{
			Seed:     3,
			Arrivals: lowsensing.PoissonArrivals(0.05, 8),
			Churn:    lowsensing.PoissonChurn(0.1, 16, 0.02),
			Faults:   lowsensing.SensingFaults(0.1, 0.05),
		},
		multiclassScenario(),
	}
	for _, sc := range scenarios {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := lowsensing.ParseScenario(data)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, data)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("round trip changed the scenario:\n%+v\nvs\n%+v\nencoding: %s", sc, back, data)
		}
	}

	// A scenario without churn/faults/classes must not mention them in its
	// encoding at all — fault-free spec files stay identical to the seed's.
	plain := lowsensing.Scenario{Seed: 1, Arrivals: lowsensing.BatchArrivals(8)}
	data, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"churn", "faults", "classes"} {
		if strings.Contains(string(data), field) {
			t.Fatalf("zero robustness specs leaked into the encoding: %s", data)
		}
	}
}

func TestRobustnessValidation(t *testing.T) {
	run := func(sc lowsensing.Scenario) error { return sc.Validate() }
	base := lowsensing.Scenario{Arrivals: lowsensing.BatchArrivals(4)}

	t.Run("unknown churn kind enumerates registered kinds", func(t *testing.T) {
		sc := base
		sc.Churn = lowsensing.ChurnSpec{Kind: "nope"}
		err := run(sc)
		if err == nil {
			t.Fatal("unknown churn kind validated")
		}
		for _, kind := range []string{lowsensing.ChurnFlashCrowd, lowsensing.ChurnEpochs, lowsensing.ChurnPoissonJoinLeave} {
			if !strings.Contains(err.Error(), kind) {
				t.Fatalf("error does not enumerate %q: %v", kind, err)
			}
		}
	})
	t.Run("unknown fault kind enumerates registered kinds", func(t *testing.T) {
		sc := base
		sc.Faults = lowsensing.FaultSpec{Kind: "nope"}
		err := run(sc)
		if err == nil {
			t.Fatal("unknown fault kind validated")
		}
		for _, kind := range []string{lowsensing.FaultSensing, lowsensing.FaultCrash, lowsensing.FaultFlaky} {
			if !strings.Contains(err.Error(), kind) {
				t.Fatalf("error does not enumerate %q: %v", kind, err)
			}
		}
	})
	t.Run("classes exclude top-level arrivals", func(t *testing.T) {
		sc := base
		sc.Classes = []lowsensing.ClassSpec{{Name: "a", Arrivals: lowsensing.BatchArrivals(4)}}
		if run(sc) == nil {
			t.Fatal("classes plus top-level arrivals validated")
		}
	})
	t.Run("classes exclude top-level churn and faults", func(t *testing.T) {
		sc := lowsensing.Scenario{
			Churn:   lowsensing.EpochChurn(64),
			Classes: []lowsensing.ClassSpec{{Name: "a", Arrivals: lowsensing.BatchArrivals(4)}},
		}
		if run(sc) == nil {
			t.Fatal("classes plus top-level churn validated")
		}
	})
	t.Run("duplicate class names rejected", func(t *testing.T) {
		sc := lowsensing.Scenario{Classes: []lowsensing.ClassSpec{
			{Name: "a", Arrivals: lowsensing.BatchArrivals(4)},
			{Name: "a", Arrivals: lowsensing.BatchArrivals(4)},
		}}
		if run(sc) == nil {
			t.Fatal("duplicate class names validated")
		}
	})
	t.Run("unnamed class rejected", func(t *testing.T) {
		sc := lowsensing.Scenario{Classes: []lowsensing.ClassSpec{
			{Arrivals: lowsensing.BatchArrivals(4)},
		}}
		if run(sc) == nil {
			t.Fatal("unnamed class validated")
		}
	})
	t.Run("invalid fault probabilities rejected", func(t *testing.T) {
		sc := base
		sc.Faults = lowsensing.SensingFaults(1.5, 0)
		if run(sc) == nil {
			t.Fatal("false_busy > 1 validated")
		}
	})
	t.Run("flash crowd needs positive n", func(t *testing.T) {
		sc := base
		sc.Churn = lowsensing.FlashCrowdChurn(0, 0, 10)
		if run(sc) == nil {
			t.Fatal("flash crowd with n=0 validated")
		}
	})
}

// TestClusterScenarioChurnFaults covers the declarative cluster surface:
// churn joins are routed like any packets, fault counters merge into
// Total, the result stays byte-identical whatever the deprecated Workers
// says, the JSON encoding round-trips, and RunWithBaseline fills the
// whole-cluster degradation row.
func TestClusterScenarioChurnFaults(t *testing.T) {
	mkCluster := func() lowsensing.ClusterScenario {
		return lowsensing.ClusterScenario{
			Seed:     7,
			Channels: 8,
			Arrivals: lowsensing.PoissonArrivals(0.2, 400),
			Router:   lowsensing.RouterSpec{Kind: lowsensing.RouterRoundRobin},
			Churn:    lowsensing.PoissonChurn(0.05, 120, 0.02),
			Faults:   lowsensing.FlakyFaults(0.1, 0.05, 0.02, 4),
		}
	}
	sc := mkCluster()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	sc.Workers = 1
	ref, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	tot := ref.Total
	if tot.Arrived <= 400 {
		t.Fatalf("churn joins were not routed: %d packets total", tot.Arrived)
	}
	if tot.Abandoned == 0 {
		t.Fatal("cluster churn abandoned nothing")
	}
	if tot.Faults.Corrupted == 0 {
		t.Fatalf("cluster faults vacuous: %+v", tot.Faults)
	}
	if tot.Completed+tot.Abandoned+tot.Energy.Undelivered != tot.Arrived {
		t.Fatalf("cluster conservation broken: %d + %d + %d != %d",
			tot.Completed, tot.Abandoned, tot.Energy.Undelivered, tot.Arrived)
	}
	var abandoned int64
	for _, pc := range ref.PerChannel {
		abandoned += pc.Abandoned
	}
	if abandoned != tot.Abandoned {
		t.Fatalf("per-channel abandons sum to %d, Total says %d", abandoned, tot.Abandoned)
	}

	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		sc := mkCluster()
		sc.Workers = workers
		r, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d churned cluster differs from serial reference", workers)
		}
	}

	data, err := json.Marshal(mkCluster())
	if err != nil {
		t.Fatal(err)
	}
	back, err := lowsensing.ParseClusterScenario(data)
	if err != nil {
		t.Fatalf("round trip rejected: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(mkCluster(), back) {
		t.Fatalf("round trip changed the cluster scenario:\n%+v\nvs\n%+v", mkCluster(), back)
	}

	// Scenario.RunWithBaseline covers clusters: its Result is the merged
	// Total, and the baseline keeps the cluster shape.
	res, err := lowsensing.Scenario(mkCluster()).RunWithBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(withoutDegradation(res), tot) {
		t.Fatalf("RunWithBaseline's cluster run differs from ClusterScenario.Run's Total:\n%+v\nvs\n%+v", res, tot)
	}
	if len(res.Degradation) != 1 || res.Degradation[0].Name != "" {
		t.Fatalf("cluster degradation: %+v", res.Degradation)
	}
	d := res.Degradation[0]
	if d.Delta != d.DeliveredFrac-d.BaselineDeliveredFrac {
		t.Fatalf("delta %v != %v - %v", d.Delta, d.DeliveredFrac, d.BaselineDeliveredFrac)
	}
	base := lowsensing.Scenario(mkCluster()).FaultFree()
	if base.Churn.Kind != "" || base.Faults.Kind != "" || base.Channels != 8 || base.Router.Kind != lowsensing.RouterRoundRobin {
		t.Fatalf("cluster FaultFree left specs behind or dropped the cluster: %+v", base)
	}
	cbase, err := lowsensing.ClusterScenario(base).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.BaselineMeanAccesses, cbase.Total.MeanAccesses(); got != want {
		t.Fatalf("baseline mean accesses %v, fault-free cluster %v", got, want)
	}
}

// withoutDegradation returns r with its degradation rows cleared.
func withoutDegradation(r lowsensing.Result) lowsensing.Result {
	r.Degradation = nil
	return r
}

// TestSweepChurnFaults: sweep points pick up churn/fault specs from the
// base scenario, the aggregate carries the abandon and fault counters, and
// cluster sweep jobs plumb the specs through.
func TestSweepChurnFaults(t *testing.T) {
	base := lowsensing.Scenario{
		Arrivals: lowsensing.BatchArrivals(16),
		Churn:    lowsensing.PoissonChurn(0.08, 30, 0.03),
		Faults:   lowsensing.SensingFaults(0.1, 0.05),
		MaxSlots: 1 << 13,
	}
	sw, err := lowsensing.SweepSpec{Reps: 2, Base: base, Axes: []lowsensing.AxisSpec{{Name: "protocol", Variants: []lowsensing.Variant{
		{Label: "lsb"},
		{Label: "beb", Patch: json.RawMessage(`{"protocol": {"kind": "beb"}}`)},
	}}}}.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for _, pr := range pts {
		if pr.Abandoned == 0 {
			t.Fatalf("point %s aggregated no abandons", pr.Point)
		}
		if pr.Completed+pr.Abandoned+pr.Energy.Undelivered != pr.Arrived {
			t.Fatalf("point %s conservation broken", pr.Point)
		}
	}
	// LSB listens, BEB does not: only the LSB point can corrupt sensing.
	if pts[0].Faults.Corrupted == 0 {
		t.Fatalf("LSB point saw no corrupted observations: %+v", pts[0].Faults)
	}

	cbase := base
	cbase.Channels = 4
	cbase.Router = lowsensing.RouterSpec{Kind: lowsensing.RouterRoundRobin}
	csw, err := lowsensing.SweepSpec{Base: cbase}.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	cpts, err := csw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cpts[0].Abandoned == 0 {
		t.Fatal("cluster sweep job dropped the churn spec")
	}
	if cpts[0].Faults.Corrupted == 0 {
		t.Fatal("cluster sweep job dropped the fault spec")
	}
}

// TestChurnAndFaultsOnScenario: a scenario's churn and fault specs both
// take effect on a single-channel run.
func TestChurnAndFaultsOnScenario(t *testing.T) {
	res, err := lowsensing.Scenario{
		Seed:     2,
		Arrivals: lowsensing.BatchArrivals(12),
		MaxSlots: 1 << 14,
		Churn:    lowsensing.PoissonChurn(0.05, 20, 0.04),
		Faults:   lowsensing.SensingFaults(0.1, 0.05),
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Abandoned == 0 {
		t.Fatal("Scenario.Churn had no effect")
	}
	if res.Faults.Corrupted == 0 {
		t.Fatal("Scenario.Faults had no effect")
	}
	checkConservation(t, res)
}
