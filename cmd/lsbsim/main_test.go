package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lowsensing"
)

func flags(over flagScenario) flagScenario {
	f := flagScenario{
		n: 64, protocol: "lsb", arrivals: "batch", rate: 0.1,
		gran: 256, jam: "none", jamRate: 0.25, jamTo: 1024, seed: 1,
	}
	if over.protocol != "" {
		f.protocol = over.protocol
	}
	if over.arrivals != "" {
		f.arrivals = over.arrivals
	}
	if over.jam != "" {
		f.jam = over.jam
	}
	if over.n != 0 {
		f.n = over.n
	}
	if over.traceFile != "" {
		f.traceFile = over.traceFile
	}
	if over.c != 0 {
		f.c = over.c
	}
	if over.wmin != 0 {
		f.wmin = over.wmin
	}
	if over.jamBudget != 0 {
		f.jamBudget = over.jamBudget
	}
	return f
}

func TestMakeScenarioProtocols(t *testing.T) {
	for _, name := range []string{"lsb", "beb", "poly", "aloha", "mwu", "genie", "sawtooth"} {
		if _, err := makeScenario(flags(flagScenario{protocol: name})); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Unknown kinds are rejected with the registry's kind listing.
	_, err := makeScenario(flags(flagScenario{protocol: "nope"}))
	if err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if !strings.Contains(err.Error(), "registered kinds:") {
		t.Fatalf("error does not list registered kinds: %v", err)
	}
	// LSB overrides flow through validation.
	if _, err := makeScenario(flags(flagScenario{c: 10, wmin: 8})); err == nil {
		t.Fatal("invalid lsb overrides accepted")
	}
	if _, err := makeScenario(flags(flagScenario{c: 1, wmin: 128})); err != nil {
		t.Fatalf("valid overrides rejected: %v", err)
	}
}

func TestMakeScenarioArrivals(t *testing.T) {
	for _, kind := range []string{"batch", "bernoulli", "poisson", "aqt"} {
		sc, err := makeScenario(flags(flagScenario{arrivals: kind, n: 100}))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		src, err := sc.Arrivals.Source(sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		slot, count, ok := src.Next()
		if !ok || count <= 0 || slot < 0 {
			t.Fatalf("%s: first batch (%d,%d,%v)", kind, slot, count, ok)
		}
	}
	if _, err := makeScenario(flags(flagScenario{arrivals: "nope"})); err == nil {
		t.Fatal("unknown arrivals accepted")
	}
	if _, err := makeScenario(flags(flagScenario{arrivals: "batch", n: -1})); err == nil {
		t.Fatal("batch with n <= 0 accepted")
	}
	_, err := makeScenario(flags(flagScenario{arrivals: "file"}))
	if err == nil {
		t.Fatal("file arrivals without tracefile accepted")
	}
	if !strings.Contains(err.Error(), "-tracefile") {
		t.Fatalf("error does not point at the -tracefile flag: %v", err)
	}
}

func TestMakeScenarioArrivalsFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.txt")
	if err := os.WriteFile(path, []byte("0 3\n10 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := makeScenario(flags(flagScenario{arrivals: "file", traceFile: path}))
	if err != nil {
		t.Fatal(err)
	}
	src, err := sc.Arrivals.Source(sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	slot, count, ok := src.Next()
	if !ok || slot != 0 || count != 3 {
		t.Fatalf("first batch = (%d,%d,%v)", slot, count, ok)
	}
	if _, err := makeScenario(flags(flagScenario{arrivals: "file", traceFile: filepath.Join(dir, "missing.txt")})); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestMakeScenarioJammers(t *testing.T) {
	sc, err := makeScenario(flags(flagScenario{}))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Jammer.Kind != "" {
		t.Fatalf("jam none produced kind %q", sc.Jammer.Kind)
	}
	for _, kind := range []string{"random", "burst", "reactive"} {
		sc, err := makeScenario(flags(flagScenario{jam: kind, jamBudget: 5}))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		j, err := sc.Jammer.Jammer(sc.Seed)
		if err != nil || j == nil {
			t.Fatalf("%s: jammer %v err %v", kind, j, err)
		}
	}
	if _, err := makeScenario(flags(flagScenario{jam: "nope"})); err == nil {
		t.Fatal("unknown jammer accepted")
	}
}

// TestRunFlagPath drives the command end to end through flags.
func TestRunFlagPath(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "64", "-seed", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "protocol            lsb") ||
		!strings.Contains(out, "64 arrived, 64 delivered") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(path, []byte(`{
		"seed": 3,
		"arrivals": {"kind": "batch", "n": 64},
		"jammer": {"kind": "burst", "to": 128}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-spec", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "protocol            lsb (spec)") {
		t.Fatalf("missing spec label:\n%s", out)
	}
	if !strings.Contains(out, "64 arrived, 64 delivered") {
		t.Fatalf("spec run did not deliver:\n%s", out)
	}

	// Identical to the equivalent Scenario literal: the spec file is the
	// same data over the same engine path.
	sc, err := loadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := lowsensing.Scenario{
		Seed:     3,
		Arrivals: lowsensing.BatchArrivals(64),
		Jammer:   lowsensing.BurstJamming(0, 128),
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Energy != want.Energy || r.ActiveSlots != want.ActiveSlots {
		t.Fatal("spec run differs from the Scenario literal's run")
	}

	// Mixing -spec with scenario flags is rejected.
	if err := run([]string{"-spec", path, "-n", "32"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-spec combined with -n accepted")
	}

	if err := run([]string{"-spec", filepath.Join(dir, "missing.json")}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing spec accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"arrivals": {"kind": "nope"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-spec", bad}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("bad spec accepted")
	}
	if !strings.Contains(err.Error(), "registered kinds:") {
		t.Fatalf("bad-kind error does not enumerate kinds: %v", err)
	}
}

// TestRunKinds checks the -kinds listing: every registered kind appears,
// with its registration doc, grouped by registry.
func TestRunKinds(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-kinds"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, section := range []string{"protocols:", "arrivals:", "jammers:", "routers:"} {
		if !strings.Contains(out, section) {
			t.Fatalf("missing section %q:\n%s", section, out)
		}
	}
	for _, kd := range lowsensing.ProtocolKinds() {
		if !strings.Contains(out, kd.Kind) || !strings.Contains(out, kd.Doc) {
			t.Fatalf("kind %q or its doc missing:\n%s", kd.Kind, out)
		}
	}
	if !strings.Contains(out, "LOW-SENSING BACKOFF") {
		t.Fatalf("lsb doc missing:\n%s", out)
	}
}

// TestRunBadFlag: a parse error returns the quiet errUsage sentinel (exit
// code 2 in main) after the FlagSet has printed the error and usage once.
func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-bogus"}, &buf)
	if !errors.Is(err, errUsage) {
		t.Fatalf("want errUsage, got %v", err)
	}
	if out := buf.String(); !strings.Contains(out, "-bogus") || !strings.Contains(out, "Usage") {
		t.Fatalf("flag error/usage not printed:\n%s", out)
	}
}

// TestRunUndeliveredExit checks the sentinel for the historical exit code:
// a truncated run reports errUndelivered.
func TestRunUndeliveredExit(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "32", "-maxslots", "2"}, &buf)
	if !errors.Is(err, errUndelivered) {
		t.Fatalf("want errUndelivered, got %v", err)
	}
	if !strings.Contains(buf.String(), "undelivered") {
		t.Fatalf("missing undelivered line:\n%s", buf.String())
	}
}

// TestRunClusterMode: -channels runs the flag scenario as a cluster, with
// the routing balance, the fairness index, the merged summary, and one
// line per channel.
func TestRunClusterMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "64", "-seed", "3", "-channels", "4", "-router", "roundrobin"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"cluster             4 channels, router roundrobin",
		"protocol            lsb",
		"routed/channel      min 16  max 16",
		"fairness (jain)     1.0000",
		"64 arrived, 64 delivered",
		"ch00", "ch03",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}

	// The summary's merged block is the ClusterScenario Total of the same
	// run, so the CLI path and the library path cannot drift.
	cr, err := lowsensing.ClusterScenario{
		Seed:     3,
		Channels: 4,
		Arrivals: lowsensing.BatchArrivals(64),
		Router:   lowsensing.RouterSpec{Kind: lowsensing.RouterRoundRobin},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Total.Arrived != 64 || cr.Total.Completed != 64 {
		t.Fatalf("library run disagrees with CLI expectations: %+v", cr.Total)
	}
}

// TestRunClusterObservability: cluster -trace multiplexes per-channel run
// labels into one NDJSON file, -metrics writes the merged window series,
// and .csv traces are rejected (CSV has no run-label multiplexing).
func TestRunClusterObservability(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.ndjson")
	metrics := filepath.Join(dir, "metrics.ndjson")
	var buf bytes.Buffer
	if err := run([]string{"-n", "48", "-seed", "5", "-channels", "3", "-trace", trace,
		"-metrics", metrics, "-window", "64"}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < 3; ch++ {
		label := fmt.Sprintf("\"run\":\"ch%02d\"", ch)
		if !strings.Contains(string(data), label) {
			t.Fatalf("trace misses channel label %s", label)
		}
	}
	mdata, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mdata), "\"type\":\"window\"") {
		t.Fatalf("metrics file has no windows:\n%s", mdata)
	}

	if err := run([]string{"-n", "8", "-channels", "2", "-trace", filepath.Join(dir, "t.csv")}, &bytes.Buffer{}); err == nil {
		t.Fatal("cluster -trace .csv accepted")
	}
}

// TestRunClusterFlagErrors: the cluster flags are validated, and -spec
// composes with -channels (the execution mode is not part of the
// scenario).
func TestRunClusterFlagErrors(t *testing.T) {
	if err := run([]string{"-n", "8", "-router", "roundrobin"}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "-router requires -channels") {
		t.Fatalf("-router without -channels: %v", err)
	}
	if err := run([]string{"-n", "8", "-channels", "0"}, &bytes.Buffer{}); err == nil {
		t.Fatal("-channels 0 accepted")
	}
	err := run([]string{"-n", "8", "-channels", "2", "-router", "nope"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "registered kinds:") {
		t.Fatalf("unknown router kind: %v", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(path, []byte(`{"seed": 3, "arrivals": {"kind": "batch", "n": 32}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-spec", path, "-channels", "2", "-router", "sticky"}, &buf); err != nil {
		t.Fatalf("-spec with -channels rejected: %v", err)
	}
	if !strings.Contains(buf.String(), "cluster             2 channels, router sticky") {
		t.Fatalf("spec cluster run summary:\n%s", buf.String())
	}
}

// TestRunClusterSpecFile: -spec takes a cluster JSON file as it is, and
// -channels/-router, set explicitly, override its cluster fields.
func TestRunClusterSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cluster.json")
	if err := os.WriteFile(path, []byte(`{
		"seed": 7,
		"channels": 4,
		"arrivals": {"kind": "poisson", "rate": 0.5, "n": 200},
		"jammer":   {"kind": "random", "rate": 0.05, "budget": 40},
		"router":   {"kind": "sticky", "flows": 8}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-spec", path}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cluster             4 channels, router sticky", "200 arrived", "ch03"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q:\n%s", want, buf.String())
		}
	}
	// The summary's merged block is the spec's Scenario.Run.
	sc, err := loadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%d arrived, %d delivered", r.Arrived, r.Completed); !strings.Contains(buf.String(), want) {
		t.Fatalf("missing %q:\n%s", want, buf.String())
	}

	buf.Reset()
	if err := run([]string{"-spec", path, "-channels", "2", "-router", "roundrobin"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cluster             2 channels, router roundrobin") {
		t.Fatalf("flags did not override the spec's cluster fields:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"-spec", path, "-channels", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "cluster") {
		t.Fatalf("-channels 1 did not select a single channel:\n%s", buf.String())
	}
}

// TestRunChurnFaultsFlags drives the robustness flags end to end: the JSON
// snippets compile into the scenario, the summary reports abandons and
// fault counters, and -baseline adds the degradation row.
func TestRunChurnFaultsFlags(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "256", "-seed", "5", "-maxslots", "200000",
		"-churn", `{"kind":"poisson-join-leave","rate":0.05,"n":32,"leave_rate":0.02}`,
		"-faults", `{"kind":"sensing","false_busy":0.2,"false_idle":0.1}`,
		"-baseline"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"abandoned", "faults", "corrupted", "degradation (all)"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
	}

	// Cluster mode threads the same specs through ClusterScenario.
	buf.Reset()
	err = run([]string{"-n", "256", "-seed", "5", "-channels", "2", "-router", "roundrobin",
		"-churn", `{"kind":"flash-crowd","slot":16,"n":8,"lifetime":40}`,
		"-faults", `{"kind":"crash","rate":0.01,"down":4}`,
		"-baseline"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, frag := range []string{"cluster             2 channels", "crashes", "degradation (all)"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("cluster output missing %q:\n%s", frag, out)
		}
	}
}

// TestRunChurnFaultsFlagErrors: malformed or unknown snippets are rejected
// before the run, and the scenario-shaping flags conflict with -spec.
func TestRunChurnFaultsFlagErrors(t *testing.T) {
	if err := run([]string{"-n", "8", "-churn", `{"kind":`}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "-churn") {
		t.Fatalf("malformed -churn: %v", err)
	}
	if err := run([]string{"-n", "8", "-faults", `{"bogus":1}`}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "-faults") {
		t.Fatalf("unknown -faults field: %v", err)
	}
	// Unknown kinds surface the registry's sorted kind listing.
	if err := run([]string{"-n", "8", "-churn", `{"kind":"nope"}`}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "registered kinds:") {
		t.Fatalf("unknown churn kind: %v", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	if err := os.WriteFile(path, []byte(`{"seed": 3, "arrivals": {"kind": "batch", "n": 8}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", path, "-churn", `{"kind":"epochs","period":64}`}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "-churn does not apply") {
		t.Fatalf("-spec with -churn: %v", err)
	}
	// -baseline composes with -spec (it shapes no scenario data).
	var buf bytes.Buffer
	if err := run([]string{"-spec", path, "-baseline"}, &buf); err != nil {
		t.Fatalf("-spec with -baseline rejected: %v", err)
	}
	if !strings.Contains(buf.String(), "degradation (all)") {
		t.Fatalf("baseline row missing:\n%s", buf.String())
	}
}
