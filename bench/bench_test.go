package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"lowsensing"
	"lowsensing/channel"
	"lowsensing/internal/adversary"
	"lowsensing/internal/core"
	"lowsensing/internal/jamming"
	"lowsensing/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from full-size default-seed passes")

// shrunk holds a small input per workload, so every workload runs one
// pass in well under a second.
var shrunk = map[string]string{
	"sweep-grid": `{"id": "t", "reps": 3, "base": {"arrivals": {"kind": "batch", "n": 8}, "protocol": {"kind": "lsb"}},
		"axes": [
			{"name": "protocol", "variants": [{"patch": {"protocol": {"kind": "lsb"}}}, {"patch": {"protocol": {"kind": "mwu"}}}]},
			{"name": "jammer", "variants": [{"label": "none"}, {"patch": {"jammer": {"kind": "random", "rate": 0.1}}}]}]}`,
	"stream-lsb":           `{"arrivals": {"kind": "poisson", "rate": 0.2, "n": 3000}, "protocol": {"kind": "lsb"}, "jammer": {"kind": "random", "rate": 0.05}}`,
	"batch-lsb-8k":         `{"arrivals": {"kind": "batch", "n": 256}, "protocol": {"kind": "lsb"}}`,
	"cluster-leastbacklog": `{"channels": 4, "arrivals": {"kind": "poisson", "rate": 0.8, "n": 3000}, "protocol": {"kind": "lsb"}, "router": {"kind": "leastbacklog"}}`,
}

// shrunkInstance is the test-only constructor: the workload's own build
// over a small input (registry-small: two experiments).
func shrunkInstance(t *testing.T, w workload, seed uint64, traced bool) instance {
	t.Helper()
	if w.spec == "" {
		return &registryRun{seed: seed, workers: 2, only: []string{"A1", "E9"}}
	}
	spec, err := prepareSpec([]byte(shrunk[w.name]), seed, traced)
	if err != nil {
		t.Fatal(err)
	}
	return w.build(spec, seed, 2)
}

// TestWorkloadsOnePass runs every workload, untraced and traced, for one
// timed pass and checks that both pass every output check and that
// tracing leaves the outputs bit-identical.
func TestWorkloadsOnePass(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests [2]string
			for i, traced := range []bool{false, true} {
				cfg := childConfig{seconds: 1e-9, workers: 2, traced: traced}
				rep := measure(w.name, shrunkInstance(t, w, 11, traced), cfg)
				if rep.Failed != 0 || len(rep.Errors) != 0 || rep.Attempted == 0 {
					t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, rep.Failed, rep.Attempted, rep.Errors)
				}
				if len(rep.PassS) != 1 || rep.PassS[0] <= 0 || len(rep.PeakRSSMB) != 1 || rep.PeakRSSMB[0] <= 0 {
					t.Fatalf("traced=%v: passes %v, peak RSS %v", traced, rep.PassS, rep.PeakRSSMB)
				}
				digests[i] = rep.Digest
			}
			if digests[0] != digests[1] {
				t.Fatal("traced outputs differ from untraced outputs")
			}
		})
	}
}

// TestTracedKindsBitIdentical checks, protocol by protocol, that the
// traced kinds give the Result of the kinds they wrap — EngineStats
// included, so station recycling and the batch path engage exactly as
// untraced.
func TestTracedKindsBitIdentical(t *testing.T) {
	for _, proto := range []string{"lsb", "beb", "sawtooth", "mwu"} {
		for _, jam := range []string{"", "random"} {
			sc := lowsensing.Scenario{
				Seed:     5,
				Arrivals: lowsensing.PoissonArrivals(0.1, 400),
				Protocol: lowsensing.ProtocolSpec{Kind: proto},
			}
			if jam != "" {
				sc.Jammer = lowsensing.RandomJamming(0.1, 0)
			}
			traced := sc
			traced.Arrivals.Kind = tracedKind(sc.Arrivals.Kind)
			traced.Protocol.Kind = tracedKind(proto)
			if jam != "" {
				traced.Jammer.Kind = tracedKind(jam)
			}
			want, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := traced.Run()
			if err != nil {
				t.Fatal(err)
			}
			if resultDigest(got) != resultDigest(want) || got.EngineStats != want.EngineStats {
				t.Errorf("%s/jammer=%q: traced run differs:\n got %+v\nwant %+v", proto, jam, got.EngineStats, want.EngineStats)
			}
			if want.EngineStats.StationsReused == 0 {
				t.Errorf("%s: no station was recycled; the comparison does not cover Reset", proto)
			}
		}
	}
	cs := lowsensing.ClusterScenario{
		Seed:     3,
		Channels: 4,
		Arrivals: lowsensing.PoissonArrivals(0.8, 2000),
		Router:   lowsensing.RouterSpec{Kind: lowsensing.RouterLeastBacklog},
		Jammer:   lowsensing.RandomJamming(0.05, 0),
		Workers:  2,
	}
	want, err := cs.Run()
	if err != nil {
		t.Fatal(err)
	}
	cs.Router.Kind = tracedKind(lowsensing.RouterLeastBacklog)
	got, err := cs.Run()
	if err != nil {
		t.Fatal(err)
	}
	for ch := range want.PerChannel {
		if resultDigest(got.PerChannel[ch]) != resultDigest(want.PerChannel[ch]) ||
			got.PerChannel[ch].EngineStats != want.PerChannel[ch].EngineStats {
			t.Errorf("leastbacklog: channel %d differs under the traced router", ch)
		}
	}
}

// TestWrappersForwardOptionalInterfaces checks that every wrapper has
// exactly the optional interfaces of the value it wraps.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	lsb, err := core.NewPacket(core.Default())
	if err != nil {
		t.Fatal(err)
	}
	st := wrapStation(lsb, layerCore)
	if _, ok := st.(channel.ReusableStation); !ok {
		t.Error("station wrapper dropped ReusableStation")
	}
	if _, ok := st.(channel.Windowed); !ok {
		t.Error("station wrapper dropped Windowed")
	}
	plain := wrapStation(struct{ channel.Station }{lsb}, layerCore)
	if _, ok := plain.(channel.ReusableStation); ok {
		t.Error("station wrapper added ReusableStation")
	}

	interval, err := jamming.NewInterval(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := jamming.NewAdaptive(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	random, err := jamming.NewRandom(0.1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		j             channel.Jammer
		ranged, bound bool
	}{
		{"interval", interval, true, false},
		{"adaptive", adaptive, false, true},
		{"random", random, false, false},
	} {
		j, err := wrapJammer(tc.j)
		if err != nil {
			t.Fatal(err)
		}
		_, ranged := j.(channel.RangeJammer)
		_, bound := j.(sim.EngineBound)
		if ranged != tc.ranged || bound != tc.bound {
			t.Errorf("%s: wrapper is RangeJammer=%v EngineBound=%v, want %v %v", tc.name, ranged, bound, tc.ranged, tc.bound)
		}
	}
	if _, err := wrapJammer(jamming.NewReactiveAll(1)); err == nil {
		t.Error("a reactive jammer was wrapped")
	}

	src, err := adversary.NewDrainAwareBursts(4, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapArrivals(src).(sim.EngineBound); !ok {
		t.Error("arrivals wrapper dropped EngineBound")
	}
}

// TestPrepareSpec checks that the seed reaches every seed field and that
// the traced run renames the component kinds, sweep patches included.
func TestPrepareSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("workloads", "sweep-grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := prepareSpec(raw, 99, true)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := lowsensing.ParseSweepSpec(out)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Seed != 99 || ss.Base.Seed != 99 || ss.Reps != 160 {
		t.Errorf("seeds %d/%d reps %d, want 99/99 160", ss.Seed, ss.Base.Seed, ss.Reps)
	}
	sw, err := ss.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sw.Points() {
		sc := p.Scenario
		if !strings.HasPrefix(sc.Protocol.Kind, tracedPrefix) || !strings.HasPrefix(sc.Arrivals.Kind, tracedPrefix) ||
			(sc.Jammer.Kind != "" && !strings.HasPrefix(sc.Jammer.Kind, tracedPrefix)) {
			t.Fatalf("point %s not traced: %+v", p, sc)
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// TestCompare checks the verdicts: equal runs pass, a slower one is a
// regression, a noisy one is unresolved unless the file holds several runs
// whose medians agree, a higher error rate fails, and a setup that doubles
// from microseconds stays under setup_s's minimum change.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs int, passes []float64, setup, errRate float64) string {
		line, err := json.Marshal(map[string]any{"workloads": []wlResult{{
			Name: "w",
			Metrics: []series{
				sampled("pass_s", "s", passes),
				sampled("setup_s", "s", []float64{setup, setup, setup}),
				{Name: "error_rate", Unit: "ratio", Value: errRate},
			},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		data := bytes.Repeat(append(line, '\n'), runs)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1, 1.01, 0.99, 1, 1.02}
	noisy := []float64{0.5, 2, 1, 0.4, 3}
	base := write("a", 1, steady, 1e-5, 0)
	for _, tc := range []struct {
		name    string
		runs    int
		passes  []float64
		setup   float64
		errRate float64
		code    int
		row     string // the metric whose row carries the verdict
		verdict string
	}{
		{"same", 1, steady, 1e-5, 0, 0, "pass_s", "ok"},
		{"slower", 1, []float64{2, 2.01, 1.99, 2, 2.02}, 1e-5, 0, 1, "pass_s", "regression"},
		{"noisy", 1, noisy, 1e-5, 0, 0, "pass_s", "unresolved"},
		{"noisy-runs", 3, noisy, 1e-5, 0, 0, "pass_s", "ok"},
		{"errors", 1, steady, 1e-5, 0.5, 1, "error_rate", "regression"},
		{"setup", 1, steady, 2e-5, 0, 0, "setup_s", "ok"},
	} {
		var out bytes.Buffer
		code := compare("..", base, write(tc.name, tc.runs, tc.passes, tc.setup, tc.errRate), &out, &out)
		var row string
		for _, l := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(l); len(f) > 1 && f[1] == tc.row {
				row = l
			}
		}
		if code != tc.code || !strings.HasSuffix(row, " "+tc.verdict) {
			t.Errorf("%s: exit %d, want %d with %s %q:\n%s", tc.name, code, tc.code, tc.row, tc.verdict, out.String())
		}
	}
}

// TestDieWithParent checks that, on Linux, a child is set to be killed
// when the benchmark process ends.
func TestDieWithParent(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("Pdeathsig is Linux-only")
	}
	cmd := exec.Command("true")
	dieWithParent(cmd)
	if sig := reflect.ValueOf(cmd.SysProcAttr).Elem().FieldByName("Pdeathsig").Interface(); sig != syscall.SIGKILL {
		t.Errorf("Pdeathsig = %v, want SIGKILL", sig)
	}
}

// TestUpdateDigests rewrites testdata/digests.json with -update.
func TestUpdateDigests(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite testdata/digests.json")
	}
	all := map[string]map[string]string{}
	for _, w := range workloads {
		if w.spec == "" {
			continue
		}
		inst, err := load("..", w, defaultSeed, false, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.setup(nil); err != nil {
			t.Fatal(err)
		}
		out, err := inst.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]string{}
		for _, u := range out.units {
			m[u.name] = u.digest
		}
		all[w.name] = m
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "digests.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
