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

	// A new run where one benchmark got far slower and a new
	// single-iteration one appeared: timings are informational, so compare
	// reports both and still succeeds.
	slower := strings.ReplaceAll(sampleBench, "28.72 ns/op", "99.9 ns/op")
	slower += "BenchmarkFresh-8 1 5.0 ns/op\n"
	if err := run([]string{"-emit", newJSON}, strings.NewReader(slower), &buf); err != nil {
		t.Fatal(err)
	}

	buf.Reset()
	if err := run([]string{"-compare", oldJSON, newJSON}, strings.NewReader(""), &buf); err != nil {
		t.Fatalf("a timing-only change must not fail the gate: %v", err)
	}
	got := buf.String()
	for _, frag := range []string{"+247.8%", "BenchmarkFresh", "new", "no allocation regressions"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("compare output missing %q:\n%s", frag, got)
		}
	}
	if strings.Contains(got, "FAIL") {
		t.Fatalf("timing-only change marked as a failure:\n%s", got)
	}

	// A single-iteration new run (CI's -benchtime 1x smoke) is not
	// comparable: no failures, however wild its numbers look.
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
	if got := buf.String(); strings.Contains(got, "FAIL") || !strings.Contains(got, "single-iteration") {
		t.Fatalf("single-iteration smoke comparison should inform, not fail:\n%s", got)
	}

	// Identical baselines pass.
	buf.Reset()
	if err := run([]string{"-compare", oldJSON, oldJSON}, strings.NewReader(""), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no allocation regressions") {
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
	// The retired timing and gate-selection flags are unknown.
	for _, flag := range []string{"-warn", "-failon"} {
		if err := run([]string{"-compare", flag, "allocs", "a.json", "b.json"}, strings.NewReader(""), &buf); err == nil {
			t.Fatalf("%s accepted", flag)
		}
	}
}

// TestFailOnAllocs: -compare turns a deterministic allocs/op increase, or a
// properly-iterated row with no baseline, into a nonzero exit (the CI gate
// on the engine's zero-allocation hot path), while leaving single-iteration
// smoke runs non-fatal.
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
	err := run([]string{"-compare", oldJSON, allocJSON}, strings.NewReader(""), &buf)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("allocs/op increase must fail, got %v", err)
	}
	if !strings.Contains(buf.String(), "FAIL: allocs/op 0 -> 2") {
		t.Fatalf("table missing the alloc failure:\n%s", buf.String())
	}

	// Single-iteration runs are not comparable: no alloc gate.
	smokeJSON := filepath.Join(dir, "smoke.json")
	smoke := strings.ReplaceAll(leaky, "76938135", "1")
	if err := run([]string{"-emit", smokeJSON}, strings.NewReader(smoke), &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-compare", oldJSON, smokeJSON}, strings.NewReader(""), &buf); err != nil {
		t.Fatalf("single-iteration run must not trip the alloc gate: %v", err)
	}

	// A renamed benchmark has no baseline row: it must fail rather than
	// print "new" and leave the gate unnoticed. A single-iteration row with
	// no baseline stays informational.
	renamedJSON := filepath.Join(dir, "renamed.json")
	renamed := strings.Replace(sampleBench, "BenchmarkEngineHotPath/lsb/bernoulli-8", "BenchmarkEngineHotPath/lsb/poisson-8", 1)
	if err := run([]string{"-emit", renamedJSON}, strings.NewReader(renamed), &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err = run([]string{"-compare", oldJSON, renamedJSON}, strings.NewReader(""), &buf)
	if err == nil || !strings.Contains(err.Error(), "no baseline") {
		t.Fatalf("unbaselined row must fail, got %v", err)
	}
	if got := buf.String(); !strings.Contains(got, "FAIL: no baseline row") || !strings.Contains(got, "gone") {
		t.Fatalf("table missing the unbaselined FAIL mark or the gone row:\n%s", got)
	}
	smokeNew := strings.Replace(renamed, "300000", "1", 1)
	smokeNewJSON := filepath.Join(dir, "smoke-new.json")
	if err := run([]string{"-emit", smokeNewJSON}, strings.NewReader(smokeNew), &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-compare", oldJSON, smokeNewJSON}, strings.NewReader(""), &buf); err != nil {
		t.Fatalf("single-iteration unbaselined row must not trip the gate: %v", err)
	}
}
