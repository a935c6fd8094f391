package lowsensing_test

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"lowsensing"
	"lowsensing/internal/runner"
)

// twoAxisSpec is the acceptance-criteria sweep: 2 axes (batch size x
// protocol) with replications.
const twoAxisSpec = `{
	"id": "test-sweep",
	"seed": 20240617,
	"reps": 3,
	"base": {"arrivals": {"kind": "batch", "n": 16}},
	"axes": [
		{"name": "n", "variants": [
			{"label": "16"},
			{"label": "32", "patch": {"arrivals": {"n": 32}}},
			{"label": "64", "patch": {"arrivals": {"n": 64}}}
		]},
		{"name": "protocol", "variants": [
			{"label": "lsb"},
			{"label": "beb", "patch": {"protocol": {"kind": "beb"}}}
		]}
	]
}`

func twoAxisSweep(t *testing.T, workers int) *lowsensing.Sweep {
	t.Helper()
	ss, err := lowsensing.ParseSweepSpec([]byte(twoAxisSpec))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ss.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	return sw.Workers(workers)
}

func TestSweepGridAndAggregates(t *testing.T) {
	sw := twoAxisSweep(t, 0)
	points := sw.Points()
	if len(points) != 6 {
		t.Fatalf("grid has %d points, want 3x2", len(points))
	}
	// Row-major: first axis (n) outermost.
	wantLabels := []string{
		"n=16 protocol=lsb", "n=16 protocol=beb",
		"n=32 protocol=lsb", "n=32 protocol=beb",
		"n=64 protocol=lsb", "n=64 protocol=beb",
	}
	for i, p := range points {
		if p.String() != wantLabels[i] {
			t.Fatalf("point %d = %q, want %q", i, p, wantLabels[i])
		}
		if p.Index != i {
			t.Fatalf("point %d has Index %d", i, p.Index)
		}
	}

	results, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results", len(results))
	}
	ns := []int64{16, 16, 32, 32, 64, 64}
	for i, pr := range results {
		if pr.Reps != 3 {
			t.Fatalf("point %d aggregated %d reps", i, pr.Reps)
		}
		if pr.Arrived != 3*ns[i] || pr.Completed != 3*ns[i] {
			t.Fatalf("point %d: arrived %d completed %d, want %d", i, pr.Arrived, pr.Completed, 3*ns[i])
		}
		if pr.DeliveredFrac() != 1 {
			t.Fatalf("point %d delivered %v", i, pr.DeliveredFrac())
		}
		if pr.Energy.Packets() != 3*ns[i] {
			t.Fatalf("point %d energy pooled %d packets", i, pr.Energy.Packets())
		}
		if pr.Throughput.N() != 3 || pr.Throughput.Mean() <= 0 {
			t.Fatalf("point %d throughput stats %+v", i, pr.Throughput)
		}
		if pr.Energy.Accesses.Quantile(0.99) <= 0 {
			t.Fatalf("point %d has no quantile data", i)
		}
	}

	// Each (point, rep) must equal the standalone scenario run at the
	// derived seed — the sweep is nothing but DeriveSeed + Scenario.Run.
	sc := points[3].Scenario // n=32, beb
	sc.Seed = runner.DeriveSeed(20240617, "test-sweep", 3, 1)
	r, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	var manual lowsensing.PointResult
	for rep := 0; rep < 3; rep++ {
		s := points[3].Scenario
		s.Seed = runner.DeriveSeed(20240617, "test-sweep", 3, rep)
		rr, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep == 1 && !sameResult(rr, r) {
			t.Fatal("derived-seed rerun differs")
		}
		manual.Energy.Merge(&rr.Energy)
	}
	if manual.Energy != results[3].Energy {
		t.Fatal("sweep aggregate differs from manually merged replications")
	}
}

// TestSweepDeterministicAcrossWorkers: aggregates are a pure function of
// the sweep definition, whatever the worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	base, err := twoAxisSweep(t, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7} {
		got, err := twoAxisSweep(t, workers).Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if base[i].Energy != got[i].Energy || base[i].Throughput != got[i].Throughput ||
				base[i].Arrived != got[i].Arrived || base[i].Completed != got[i].Completed {
				t.Fatalf("workers=%d: point %d differs", workers, i)
			}
		}
	}
}

func TestSweepStreamOrderAndErrors(t *testing.T) {
	var got []string
	err := twoAxisSweep(t, 4).Stream(func(pr lowsensing.PointResult) error {
		got = append(got, pr.Point.String())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || got[0] != "n=16 protocol=lsb" || got[5] != "n=64 protocol=beb" {
		t.Fatalf("stream order: %v", got)
	}

	// Emit errors cancel the sweep.
	boom := errors.New("boom")
	calls := 0
	err = twoAxisSweep(t, 4).Stream(func(lowsensing.PointResult) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after error", calls)
	}

	if _, err := twoAxisSweep(t, -1).Run(); err == nil {
		t.Fatal("Workers(-1) accepted")
	}
}

// TestSweepReuse: a built Sweep streams any number of times with the same
// results, and hooks can be swapped between runs.
func TestSweepReuse(t *testing.T) {
	sw := twoAxisSweep(t, 2)
	run := func() ([]lowsensing.PointResult, int) {
		var results []lowsensing.PointResult
		jobs := 0
		var observed atomic.Int64
		sw.Progress(func(lowsensing.SweepProgress) { jobs++ })
		sw.Observe(func(lowsensing.Point, int) lowsensing.Recorder {
			observed.Add(1)
			return nil
		})
		if err := sw.Stream(func(pr lowsensing.PointResult) error {
			results = append(results, pr)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if observed.Load() != int64(jobs) {
			t.Fatalf("observed %d jobs, progress saw %d", observed.Load(), jobs)
		}
		return results, jobs
	}
	first, jobs1 := run()
	second, jobs2 := run()
	if jobs1 != 18 || jobs2 != 18 {
		t.Fatalf("progress saw %d then %d jobs, want 18 each", jobs1, jobs2)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("second Stream of the same Sweep differs from the first")
	}
}

func TestSweepSpecJSON(t *testing.T) {
	spec := []byte(`{
		"id": "spec-sweep",
		"seed": 99,
		"reps": 2,
		"base": {"arrivals": {"kind": "batch", "n": 16}},
		"axes": [
			{"name": "rate", "variants": [
				{"label": "batch", "patch": {}},
				{"label": "bern", "patch": {"arrivals": {"kind": "bernoulli", "rate": 0.1, "n": 16}}}
			]},
			{"name": "protocol", "variants": [
				{"label": "lsb"},
				{"label": "beb", "patch": {"protocol": {"kind": "beb"}}}
			]}
		]
	}`)
	ss, err := lowsensing.ParseSweepSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ss.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	points := sw.Points()
	if len(points) != 4 {
		t.Fatalf("spec grid has %d points", len(points))
	}
	if points[3].String() != "rate=bern protocol=beb" {
		t.Fatalf("point 3 = %q", points[3])
	}
	if points[3].Scenario.Arrivals.Kind != lowsensing.ArrivalsBernoulli ||
		points[3].Scenario.Protocol.Kind != lowsensing.ProtocolBEB {
		t.Fatalf("patches not applied: %+v", points[3].Scenario)
	}
	results, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range results {
		if pr.Arrived != 32 { // 16 packets x 2 reps
			t.Fatalf("point %d arrived %d", i, pr.Arrived)
		}
	}
}

func TestSweepSpecRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"unknown top field":   `{"base": {"arrivals": {"kind": "batch", "n": 8}}, "nope": 1}`,
		"unknown patch field": `{"base": {"arrivals": {"kind": "batch", "n": 8}}, "axes": [{"name": "a", "variants": [{"patch": {"arrivalz": {}}}]}]}`,
		"invalid base":        `{"base": {"arrivals": {"kind": "batch"}}}`,
		"invalid point":       `{"base": {"arrivals": {"kind": "batch", "n": 8}}, "axes": [{"name": "a", "variants": [{"patch": {"arrivals": {"n": -1}}}]}]}`,
		"empty axis":          `{"base": {"arrivals": {"kind": "batch", "n": 8}}, "axes": [{"name": "a", "variants": []}]}`,
		"unnamed axis":        `{"base": {"arrivals": {"kind": "batch", "n": 8}}, "axes": [{"variants": [{}]}]}`,
		"negative reps":       `{"reps": -1, "base": {"arrivals": {"kind": "batch", "n": 8}}}`,
		"duplicate label":     `{"base": {"arrivals": {"kind": "batch", "n": 8}}, "axes": [{"name": "a", "variants": [{"label": "x"}, {"label": "x"}]}]}`,
		"default label clash": `{"base": {"arrivals": {"kind": "batch", "n": 8}}, "axes": [{"name": "a", "variants": [{"label": "1"}, {}]}]}`,
		"duplicate axis":      `{"base": {"arrivals": {"kind": "batch", "n": 8}}, "axes": [{"name": "a", "variants": [{"label": "x"}]}, {"name": "a", "variants": [{"label": "y"}]}]}`,
	}
	// Ambiguous grids would give two points the same name; the error names
	// the axis and the label.
	wantMsg := map[string]string{
		"duplicate label":     `axis "a" has two variants labelled "x"`,
		"default label clash": `axis "a" has two variants labelled "1"`,
		"duplicate axis":      `axis "a" appears twice`,
	}
	for name, spec := range cases {
		ss, err := lowsensing.ParseSweepSpec([]byte(spec))
		if err != nil {
			continue // rejected at parse time (unknown fields)
		}
		_, err = ss.Sweep()
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		if want, ok := wantMsg[name]; ok && !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not say %q", name, err, want)
		}
	}
}
