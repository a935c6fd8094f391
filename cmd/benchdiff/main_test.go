package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: lowsensing/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineHotPath/queue/wheel/live=256-8         	76938135	        28.72 ns/op	  34813903 events/sec	       0 B/op	       0 allocs/op
BenchmarkEngineHotPath/lsb/bernoulli-8                	  300000	       937.0 ns/op	         5.652 accesses/packet	   6031806 events/sec	       0 B/op	       0 allocs/op
PASS
ok  	lowsensing/internal/sim	16.350s
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(f.Benchmarks))
	}
	b := f.Benchmarks[0]
	if b.Name != "BenchmarkEngineHotPath/queue/wheel/live=256-8" {
		t.Fatalf("name = %q", b.Name)
	}
	if b.NsPerOp != 28.72 || b.AllocsPerOp != 0 {
		t.Fatalf("ns/op %v allocs/op %v", b.NsPerOp, b.AllocsPerOp)
	}
	if got := b.Metrics["events/sec"]; got != 34813903 {
		t.Fatalf("events/sec metric = %v", got)
	}
	if got := f.Benchmarks[1].Metrics["accesses/packet"]; got != 5.652 {
		t.Fatalf("accesses/packet metric = %v", got)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkBroken 12 34.5\n")); err == nil {
		t.Fatal("odd field count accepted")
	}
	if _, err := Parse(strings.NewReader("BenchmarkBroken notanint 34.5 ns/op\n")); err == nil {
		t.Fatal("bad iteration count accepted")
	}
}

func TestEmitAndCompare(t *testing.T) {
	dir := t.TempDir()
	oldJSON := filepath.Join(dir, "old.json")
	newJSON := filepath.Join(dir, "new.json")

	var buf strings.Builder
	if err := run([]string{"-emit", oldJSON}, strings.NewReader(sampleBench), &buf); err != nil {
		t.Fatal(err)
	}
	var f File
	data, err := os.ReadFile(oldJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("emitted %d benchmarks, want 2", len(f.Benchmarks))
	}

	// A new run where one benchmark regressed far past the threshold, one
	// gained an allocation (deterministic even in noisy smoke runs), and
	// a new one appeared: compare must report all three and still succeed.
	regressed := strings.ReplaceAll(sampleBench, "28.72 ns/op", "99.9 ns/op")
	regressed = strings.Replace(regressed, "0 allocs/op", "3 allocs/op", 1)
	regressed += "BenchmarkFresh-8 100 5.0 ns/op\n"
	if err := run([]string{"-emit", newJSON}, strings.NewReader(regressed), &buf); err != nil {
		t.Fatal(err)
	}

	buf.Reset()
	if err := run([]string{"-compare", oldJSON, newJSON}, strings.NewReader(""), &buf); err != nil {
		t.Fatalf("compare with regression must not fail the build: %v", err)
	}
	got := buf.String()
	for _, frag := range []string{"WARN: regression", "WARN: allocs/op 0 -> 3", "BenchmarkFresh", "new"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("compare output missing %q:\n%s", frag, got)
		}
	}

	// A single-iteration new run (CI's -benchtime 1x smoke) is not
	// comparable: no warnings, however wild its numbers look.
	smoke := strings.ReplaceAll(sampleBench, "76938135", "1")
	smoke = strings.ReplaceAll(smoke, "28.72 ns/op", "99999 ns/op")
	smoke = strings.Replace(smoke, "0 allocs/op", "9 allocs/op", 1)
	smokeJSON := filepath.Join(dir, "smoke.json")
	if err := run([]string{"-emit", smokeJSON}, strings.NewReader(smoke), &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-compare", oldJSON, smokeJSON}, strings.NewReader(""), &buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); strings.Contains(got, "WARN") || !strings.Contains(got, "single-iteration") {
		t.Fatalf("single-iteration smoke comparison should inform, not warn:\n%s", got)
	}

	// Identical baselines: no warnings.
	buf.Reset()
	if err := run([]string{"-compare", oldJSON, oldJSON}, strings.NewReader(""), &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "WARN") {
		t.Fatalf("self-compare warned:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Fatalf("self-compare summary missing:\n%s", buf.String())
	}
}

func TestCompareGOMAXPROCSSuffixInsensitive(t *testing.T) {
	dir := t.TempDir()
	oldJSON := filepath.Join(dir, "old.json")
	newJSON := filepath.Join(dir, "new.json")
	var buf strings.Builder
	if err := run([]string{"-emit", oldJSON}, strings.NewReader(sampleBench), &buf); err != nil {
		t.Fatal(err)
	}
	other := strings.ReplaceAll(sampleBench, "-8 ", "-16 ")
	if err := run([]string{"-emit", newJSON}, strings.NewReader(other), &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := run([]string{"-compare", oldJSON, newJSON}, strings.NewReader(""), &buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); strings.Contains(got, "gone") || strings.Count(got, "+0.0%") != 2 {
		t.Fatalf("cross-core-count baselines did not match up:\n%s", got)
	}
}

func TestRunErrors(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{}, strings.NewReader(""), &buf); err == nil {
		t.Fatal("no mode accepted")
	}
	if err := run([]string{"-emit", "x", "-compare"}, strings.NewReader(""), &buf); err == nil {
		t.Fatal("both modes accepted")
	}
	if err := run([]string{"-emit", filepath.Join(t.TempDir(), "o.json")}, strings.NewReader("PASS\n"), &buf); err == nil {
		t.Fatal("empty bench output accepted")
	}
	if err := run([]string{"-compare", "missing-a.json", "missing-b.json"}, strings.NewReader(""), &buf); err == nil {
		t.Fatal("missing files accepted")
	}
}

// TestFailOnAllocs: -failon allocs turns a deterministic allocs/op increase,
// or a properly-iterated row with no baseline, into a nonzero exit (the CI
// gate on the engine's zero-allocation hot path), while leaving pure timing
// regressions and single-iteration smoke runs non-fatal.
func TestFailOnAllocs(t *testing.T) {
	dir := t.TempDir()
	oldJSON := filepath.Join(dir, "old.json")
	var buf strings.Builder
	if err := run([]string{"-emit", oldJSON}, strings.NewReader(sampleBench), &buf); err != nil {
		t.Fatal(err)
	}

	allocJSON := filepath.Join(dir, "alloc.json")
	leaky := strings.Replace(sampleBench, "0 allocs/op", "2 allocs/op", 1)
	if err := run([]string{"-emit", allocJSON}, strings.NewReader(leaky), &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err := run([]string{"-compare", "-failon", "allocs", oldJSON, allocJSON}, strings.NewReader(""), &buf)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("allocs/op increase with -failon allocs must fail, got %v", err)
	}
	if !strings.Contains(buf.String(), "WARN: allocs/op 0 -> 2") {
		t.Fatalf("delta table missing the alloc warning:\n%s", buf.String())
	}

	// A pure timing regression stays a warning even under -failon allocs.
	slowJSON := filepath.Join(dir, "slow.json")
	slow := strings.ReplaceAll(sampleBench, "28.72 ns/op", "99.9 ns/op")
	if err := run([]string{"-emit", slowJSON}, strings.NewReader(slow), &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-compare", "-failon", "allocs", oldJSON, slowJSON}, strings.NewReader(""), &buf); err != nil {
		t.Fatalf("timing-only regression must not fail under -failon allocs: %v", err)
	}

	// Single-iteration runs are not comparable: no alloc gate either.
	smokeJSON := filepath.Join(dir, "smoke.json")
	smoke := strings.ReplaceAll(leaky, "76938135", "1")
	if err := run([]string{"-emit", smokeJSON}, strings.NewReader(smoke), &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-compare", "-failon", "allocs", oldJSON, smokeJSON}, strings.NewReader(""), &buf); err != nil {
		t.Fatalf("single-iteration run must not trip the alloc gate: %v", err)
	}

	// A renamed benchmark has no baseline row: under -failon allocs it
	// must fail rather than print "new" and leave the gate unnoticed. A
	// single-iteration row with no baseline stays informational.
	renamedJSON := filepath.Join(dir, "renamed.json")
	renamed := strings.Replace(sampleBench, "BenchmarkEngineHotPath/lsb/bernoulli-8", "BenchmarkEngineHotPath/lsb/poisson-8", 1)
	if err := run([]string{"-emit", renamedJSON}, strings.NewReader(renamed), &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err = run([]string{"-compare", "-failon", "allocs", oldJSON, renamedJSON}, strings.NewReader(""), &buf)
	if err == nil || !strings.Contains(err.Error(), "no baseline") {
		t.Fatalf("unbaselined row with -failon allocs must fail, got %v", err)
	}
	if got := buf.String(); !strings.Contains(got, "FAIL: no baseline row") || !strings.Contains(got, "gone") {
		t.Fatalf("delta table missing the unbaselined FAIL mark or the gone row:\n%s", got)
	}
	if err := run([]string{"-compare", oldJSON, renamedJSON}, strings.NewReader(""), &buf); err != nil {
		t.Fatalf("unbaselined row without -failon must not fail: %v", err)
	}
	smokeNew := strings.Replace(renamed, "300000", "1", 1)
	smokeNewJSON := filepath.Join(dir, "smoke-new.json")
	if err := run([]string{"-emit", smokeNewJSON}, strings.NewReader(smokeNew), &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-compare", "-failon", "allocs", oldJSON, smokeNewJSON}, strings.NewReader(""), &buf); err != nil {
		t.Fatalf("single-iteration unbaselined row must not trip the gate: %v", err)
	}

	// Unknown -failon classes are rejected.
	if err := run([]string{"-compare", "-failon", "ns", oldJSON, allocJSON}, strings.NewReader(""), &buf); err == nil {
		t.Fatal("unknown -failon class accepted")
	}
}

// TestParseFailOn pins down the -failon spec grammar: "allocs" is the only
// class, and anything else — including the retired time=<pct> gate — is
// rejected.
func TestParseFailOn(t *testing.T) {
	cases := []struct {
		spec   string
		allocs bool
		ok     bool
	}{
		{"", false, true},
		{"allocs", true, true},
		{"time=5", false, false},
		{"allocs,time=10", false, false},
		{"ns", false, false},
		{"allocs,ns", false, false},
	}
	for _, c := range cases {
		allocs, err := parseFailOn(c.spec)
		if c.ok != (err == nil) {
			t.Errorf("parseFailOn(%q) error = %v, want ok=%v", c.spec, err, c.ok)
			continue
		}
		if allocs != c.allocs {
			t.Errorf("parseFailOn(%q) = %v, want %v", c.spec, allocs, c.allocs)
		}
	}
}
