package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lowsensing"
)

// writeSpec writes a scenario JSON file into a fresh temp dir and
// returns its path.
func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunUsageErrors: an invocation without -spec (and without -kinds),
// a negative -window, and scenario fields given as flags are usage errors,
// reported with the usage like a flag parse error.
func TestRunUsageErrors(t *testing.T) {
	path := writeSpec(t, `{"seed": 3, "arrivals": {"kind": "batch", "n": 8}}`)
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "-spec is required"},
		{[]string{"-baseline"}, "-spec is required"},
		{[]string{"-spec", path, "-window", "-5"}, "-window must be >= 0"},
		{[]string{"-spec", path, "-n", "32"}, "-n"},
		{[]string{"-spec", path, "-channels", "2"}, "-channels"},
	} {
		var buf bytes.Buffer
		err := run(c.args, &buf)
		if !errors.Is(err, errUsage) {
			t.Fatalf("%q: want errUsage, got %v", c.args, err)
		}
		if out := buf.String(); !strings.Contains(out, c.want) || !strings.Contains(out, "Usage") {
			t.Fatalf("%q: error %q or usage not printed:\n%s", c.args, c.want, out)
		}
	}
	// -window 0 is the documented default, not an error.
	if err := run([]string{"-spec", path, "-window", "0"}, &bytes.Buffer{}); err != nil {
		t.Fatalf("-window 0 rejected: %v", err)
	}
}

func TestRunSpecFile(t *testing.T) {
	path := writeSpec(t, `{
		"seed": 3,
		"arrivals": {"kind": "batch", "n": 64},
		"jammer": {"kind": "burst", "to": 128}
	}`)
	var buf bytes.Buffer
	if err := run([]string{"-spec", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "protocol            lsb\n") {
		t.Fatalf("missing protocol label:\n%s", out)
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

	dir := filepath.Dir(path)
	if err := run([]string{"-spec", filepath.Join(dir, "missing.json")}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing spec accepted")
	}
	if err := run([]string{"-spec", writeSpec(t, `{"arrivals": {"kind":`)}, &bytes.Buffer{}); err == nil {
		t.Fatal("malformed spec accepted")
	}
	err = run([]string{"-spec", writeSpec(t, `{"arrivals": {"kind": "nope"}}`)}, &bytes.Buffer{})
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
	path := writeSpec(t, `{"seed": 1, "arrivals": {"kind": "batch", "n": 32}, "max_slots": 2}`)
	var buf bytes.Buffer
	err := run([]string{"-spec", path}, &buf)
	if !errors.Is(err, errUndelivered) {
		t.Fatalf("want errUndelivered, got %v", err)
	}
	if !strings.Contains(buf.String(), "undelivered") {
		t.Fatalf("missing undelivered line:\n%s", buf.String())
	}
}

// TestRunClusterMode: a spec with "channels" runs as a cluster, with the
// routing balance, the fairness index, the merged summary, and one line
// per channel.
func TestRunClusterMode(t *testing.T) {
	path := writeSpec(t, `{
		"seed": 3,
		"channels": 4,
		"arrivals": {"kind": "batch", "n": 64},
		"router": {"kind": "roundrobin"}
	}`)
	var buf bytes.Buffer
	if err := run([]string{"-spec", path}, &buf); err != nil {
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

	// The summary's merged block is Scenario.Run of the same run, so the
	// CLI path and the library path cannot drift.
	r, err := lowsensing.Scenario{
		Seed:     3,
		Channels: 4,
		Arrivals: lowsensing.BatchArrivals(64),
		Router:   lowsensing.RouterSpec{Kind: lowsensing.RouterRoundRobin},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Arrived != 64 || r.Completed != 64 || len(r.PerChannel) != 4 {
		t.Fatalf("library run disagrees with CLI expectations: %+v", r)
	}
}

// TestRunClusterObservability: cluster -trace multiplexes per-channel run
// labels into one NDJSON file, -metrics writes the merged window series,
// and .csv traces are rejected (CSV has no run-label multiplexing).
func TestRunClusterObservability(t *testing.T) {
	path := writeSpec(t, `{"seed": 5, "channels": 3, "arrivals": {"kind": "batch", "n": 48}}`)
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.ndjson")
	metrics := filepath.Join(dir, "metrics.ndjson")
	var buf bytes.Buffer
	if err := run([]string{"-spec", path, "-trace", trace,
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

	if err := run([]string{"-spec", path, "-trace", filepath.Join(dir, "t.csv")}, &bytes.Buffer{}); err == nil {
		t.Fatal("cluster -trace .csv accepted")
	}
}

// TestRunClusterTraceReproducible: a cluster's -trace file is a pure
// function of the spec, byte for byte, on a multi-core scheduler and under
// a backlog-oblivious router (the README's cluster spec).
func TestRunClusterTraceReproducible(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	path := writeSpec(t, `{
		"seed": 7,
		"channels": 16,
		"arrivals": {"kind": "poisson", "rate": 0.5, "n": 2000},
		"jammer":   {"kind": "random", "rate": 0.05, "budget": 400},
		"router":   {"kind": "sticky", "flows": 64}
	}`)
	trace := func(name string) []byte {
		out := filepath.Join(t.TempDir(), name)
		if err := run([]string{"-spec", path, "-trace", out}, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first, second := trace("a.ndjson"), trace("b.ndjson")
	if len(first) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("two runs of one spec wrote different traces (%d and %d bytes)", len(first), len(second))
	}
}

// TestRunClusterSpecErrors: a spec's cluster fields are validated before
// the run — a router needs channels, channels cannot be negative, and an
// unknown router kind lists the registered ones.
func TestRunClusterSpecErrors(t *testing.T) {
	for _, c := range []struct {
		spec, want string
	}{
		{`{"arrivals": {"kind": "batch", "n": 8}, "router": {"kind": "roundrobin"}}`, "a router needs a cluster"},
		{`{"arrivals": {"kind": "batch", "n": 8}, "channels": -1}`, "Channels must be >= 0"},
		{`{"arrivals": {"kind": "batch", "n": 8}, "channels": 2, "router": {"kind": "nope"}}`, "registered kinds:"},
	} {
		err := run([]string{"-spec", writeSpec(t, c.spec)}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: got %v, want an error containing %q", c.spec, err, c.want)
		}
	}
}

// TestRunClusterSpecFile: -spec takes a cluster JSON file as it is, and
// the summary's merged block is the spec's Scenario.Run.
func TestRunClusterSpecFile(t *testing.T) {
	path := writeSpec(t, `{
		"seed": 7,
		"channels": 4,
		"arrivals": {"kind": "poisson", "rate": 0.5, "n": 200},
		"jammer":   {"kind": "random", "rate": 0.05, "budget": 40},
		"router":   {"kind": "sticky", "flows": 8}
	}`)
	var buf bytes.Buffer
	if err := run([]string{"-spec", path}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cluster             4 channels, router sticky", "200 arrived", "ch03"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q:\n%s", want, buf.String())
		}
	}
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
}

// TestRunChurnFaultsSpec drives the robustness specs end to end: the
// spec's churn and faults reach the run, the summary reports abandons
// and fault counters, and -baseline adds the degradation row, on a single
// channel and on a cluster.
func TestRunChurnFaultsSpec(t *testing.T) {
	path := writeSpec(t, `{
		"seed": 5,
		"max_slots": 200000,
		"arrivals": {"kind": "batch", "n": 256},
		"churn": {"kind": "poisson-join-leave", "rate": 0.05, "n": 32, "leave_rate": 0.02},
		"faults": {"kind": "sensing", "false_busy": 0.2, "false_idle": 0.1}
	}`)
	var buf bytes.Buffer
	if err := run([]string{"-spec", path, "-baseline"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"abandoned", "faults", "corrupted", "degradation (all)"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
	}

	// Cluster mode threads the same specs through the cluster executor.
	path = writeSpec(t, `{
		"seed": 5,
		"channels": 2,
		"router": {"kind": "roundrobin"},
		"arrivals": {"kind": "batch", "n": 256},
		"churn": {"kind": "flash-crowd", "slot": 16, "n": 8, "lifetime": 40},
		"faults": {"kind": "crash", "rate": 0.01, "down": 4}
	}`)
	buf.Reset()
	if err := run([]string{"-spec", path, "-baseline"}, &buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, frag := range []string{"cluster             2 channels", "crashes", "degradation (all)"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("cluster output missing %q:\n%s", frag, out)
		}
	}
}

// TestRunClusterGoldens pins the cluster CLI's bytes across commits: the
// summary, the -trace file and the -metrics file of a 3-channel spec, and
// the -baseline summary of a churn+faults cluster spec (whose degradation
// rows print before the merged block). The goldens in testdata were
// written by an earlier build of this command and are never regenerated,
// so any change to what a cluster run prints or records fails here.
func TestRunClusterGoldens(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.ndjson")
	metrics := filepath.Join(dir, "metrics.ndjson")
	for _, c := range []struct {
		args  []string
		files map[string]string // golden name -> file the run wrote
	}{
		{
			[]string{"-spec", "testdata/cluster3.json", "-trace", trace, "-metrics", metrics, "-window", "64"},
			map[string]string{"cluster3.txt": "", "cluster3.trace.ndjson": trace, "cluster3.metrics.ndjson": metrics},
		},
		{
			[]string{"-spec", "testdata/cluster_churn_faults.json", "-baseline"},
			map[string]string{"cluster_churn_faults.txt": ""},
		},
	} {
		var buf bytes.Buffer
		if err := run(c.args, &buf); err != nil {
			t.Fatalf("%q: %v", c.args, err)
		}
		for golden, path := range c.files {
			got := buf.Bytes()
			if path != "" {
				var err error
				if got, err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(filepath.Join("testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: output diverged from golden\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
			}
		}
	}
}
