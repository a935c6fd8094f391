package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lowsensing"
	"lowsensing/internal/harness"
	"lowsensing/internal/runner"
)

// TestListFlag: -list prints every registered experiment ID with a
// one-line description and runs nothing. Claims cite the paper, never a
// design document the repository does not have.
func TestListFlag(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	all := harness.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(all), got)
	}
	for i, exp := range all {
		if !strings.HasPrefix(lines[i], exp.ID) {
			t.Fatalf("line %d = %q, want prefix %q", i, lines[i], exp.ID)
		}
		if !strings.Contains(lines[i], exp.Title) {
			t.Fatalf("line %d misses title %q: %q", i, exp.Title, lines[i])
		}
		if strings.Contains(lines[i], "DESIGN") {
			t.Fatalf("line %d cites a nonexistent DESIGN document: %q", i, lines[i])
		}
	}
}

// TestRunSingleExperiment drives the command end to end on the fastest
// experiment and checks the table and output files.
func TestRunSingleExperiment(t *testing.T) {
	dir := t.TempDir()
	var buf strings.Builder
	if err := run([]string{"-id", "E9", "-scale", "small", "-outdir", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "== E9:") {
		t.Fatalf("no E9 table in output:\n%s", buf.String())
	}
	for _, name := range []string{"E9.txt", "E9.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-scale", "nope"}, &buf); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if err := run([]string{"-parallel", "0"}, &buf); err == nil {
		t.Fatal("-parallel 0 accepted")
	}
	if err := run([]string{"-id", "E99", "-scale", "small"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Negative counts are rejected with an error naming the flag, in
	// registry mode and in -spec mode, before anything runs.
	spec := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(spec, []byte(`{"base": {"arrivals": {"kind": "batch", "n": 8}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-id", "E1", "-scale", "small", "-reps", "-3"}, "-reps must be >= 0"},
		{[]string{"-spec", spec, "-reps", "-3"}, "-reps must be >= 0"},
		{[]string{"-id", "E1", "-scale", "small", "-window", "-5"}, "-window must be >= 0"},
		{[]string{"-spec", spec, "-metrics", filepath.Join(t.TempDir(), "m.ndjson"), "-window", "-5"}, "-window must be >= 0"},
	} {
		if err := run(c.args, &buf); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%q: got %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

// TestSpecFlag runs a small declarative sweep from a JSON file.
func TestSpecFlag(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(spec, []byte(`{
		"id": "demo",
		"seed": 7,
		"reps": 2,
		"base": {"arrivals": {"kind": "batch", "n": 32}},
		"axes": [
			{"name": "n", "variants": [
				{"label": "32"},
				{"label": "64", "patch": {"arrivals": {"n": 64}}}
			]},
			{"name": "protocol", "variants": [
				{"label": "lsb"},
				{"label": "beb", "patch": {"protocol": {"kind": "beb"}}}
			]}
		]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := run([]string{"-spec", spec, "-outdir", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, frag := range []string{"== demo:", "n=32 protocol=lsb", "n=64 protocol=beb"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("spec output missing %q:\n%s", frag, got)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "demo.csv")); err != nil {
		t.Fatal(err)
	}

	// Deterministic: a second run renders the identical table.
	var buf2 strings.Builder
	if err := run([]string{"-spec", spec}, &buf2); err != nil {
		t.Fatal(err)
	}
	tableOf := func(s string) string { return s[:strings.Index(s, "\n(")] }
	if tableOf(buf.String()) != tableOf(buf2.String()) {
		t.Fatalf("spec sweep not deterministic:\n%s\nvs\n%s", buf.String(), buf2.String())
	}

	// -seed/-reps override the spec file; -id/-scale conflict with it.
	var buf3 strings.Builder
	if err := run([]string{"-spec", spec, "-seed", "1234", "-reps", "3"}, &buf3); err != nil {
		t.Fatal(err)
	}
	if tableOf(buf3.String()) == tableOf(buf.String()) {
		t.Fatal("-seed/-reps override did not change the sweep output")
	}
	if !strings.Contains(buf3.String(), "x 3 reps") {
		t.Fatalf("-reps override not reflected:\n%s", buf3.String())
	}
	if err := run([]string{"-spec", spec, "-id", "E1"}, &buf); err == nil {
		t.Fatal("-spec with -id accepted")
	}
	if err := run([]string{"-spec", spec, "-scale", "small"}, &buf); err == nil {
		t.Fatal("-spec with -scale accepted")
	}

	// Malformed specs are rejected.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"base": {"arrivals": {"kind": "nope"}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", bad}, &buf); err == nil {
		t.Fatal("bad spec accepted")
	}
	if err := run([]string{"-spec", filepath.Join(dir, "missing.json")}, &buf); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

// TestKindsFlag: -kinds prints every registered kind with its registration
// doc, grouped by registry, and runs nothing.
func TestKindsFlag(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-kinds"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, section := range []string{"protocols:", "arrivals:", "jammers:"} {
		if !strings.Contains(got, section) {
			t.Fatalf("-kinds output missing section %q:\n%s", section, got)
		}
	}
	for _, kinds := range [][]lowsensing.KindDoc{
		lowsensing.ProtocolKinds(), lowsensing.ArrivalKinds(), lowsensing.JammerKinds(),
	} {
		for _, kd := range kinds {
			if !strings.Contains(got, kd.Kind) || !strings.Contains(got, kd.Doc) {
				t.Fatalf("-kinds output missing %q / %q:\n%s", kd.Kind, kd.Doc, got)
			}
		}
	}
}

// TestProfileFlags: -cpuprofile/-memprofile must produce non-empty pprof
// files alongside a normal run (the profiles wrap the whole run, so any
// invocation can be profiled).
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var buf strings.Builder
	if err := run([]string{
		"-id", "E9", "-scale", "small",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "== E9:") {
		t.Fatalf("profiled run produced no table:\n%s", buf.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("missing profile: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// An unwritable profile path is a hard error before the run starts,
	// not a silent skip (or worse, a failure discovered only after a
	// multi-minute experiment).
	bad := filepath.Join(dir, "no", "such", "dir", "prof.out")
	if err := run([]string{"-id", "E9", "-scale", "small", "-cpuprofile", bad}, &buf); err == nil {
		t.Fatal("unwritable -cpuprofile path accepted")
	}
	if err := run([]string{"-id", "E9", "-scale", "small", "-memprofile", bad}, &buf); err == nil {
		t.Fatal("unwritable -memprofile path accepted")
	}
}

// TestSpecObservability drives -spec with -progress/-trace/-metrics: one
// labeled NDJSON stream per job lands in each shared file, progress lines
// land on the injected stderr, and the rendered table is unchanged by
// observation.
func TestSpecObservability(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(spec, []byte(`{
		"id": "obs",
		"seed": 3,
		"reps": 2,
		"base": {"arrivals": {"kind": "batch", "n": 24}},
		"axes": [{"name": "protocol", "variants": [
			{"label": "lsb"},
			{"label": "beb", "patch": {"protocol": {"kind": "beb"}}}
		]}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	tracePath := filepath.Join(dir, "trace.ndjson")
	metricsPath := filepath.Join(dir, "metrics.ndjson")
	var out, errOut strings.Builder
	if err := runE([]string{
		"-spec", spec, "-parallel", "2", "-progress",
		"-trace", tracePath, "-metrics", metricsPath, "-window", "64",
	}, &out, &errOut); err != nil {
		t.Fatal(err)
	}

	// Progress: one line per job (2 points x 2 reps), each with an ETA.
	progLines := strings.Count(errOut.String(), "ETA")
	if progLines != 4 {
		t.Fatalf("want 4 progress lines, got %d:\n%s", progLines, errOut.String())
	}
	if !strings.Contains(errOut.String(), "[4/4]") {
		t.Fatalf("missing final progress line:\n%s", errOut.String())
	}

	// Trace: every line is valid JSON carrying a run label; all 4 jobs and
	// both record types appear.
	runs := map[string]bool{}
	types := map[string]bool{}
	for _, path := range []string{tracePath, metricsPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var rec struct {
				Type string `json:"type"`
				Run  string `json:"run"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("%s: bad NDJSON line %q: %v", path, line, err)
			}
			if rec.Run == "" {
				t.Fatalf("%s: unlabeled record %q", path, line)
			}
			runs[rec.Run] = true
			types[rec.Type] = true
		}
	}
	if len(runs) != 4 {
		t.Fatalf("want 4 distinct run labels across jobs, got %v", runs)
	}
	for _, typ := range []string{"slot", "packet", "window"} {
		if !types[typ] {
			t.Fatalf("record type %q missing (got %v)", typ, types)
		}
	}

	// Observation must not perturb results: the same spec without any
	// observability flags renders the identical table.
	var plain strings.Builder
	if err := run([]string{"-spec", spec, "-parallel", "1"}, &plain); err != nil {
		t.Fatal(err)
	}
	tableOf := func(s string) string { return s[:strings.Index(s, "\n(")] }
	if tableOf(plain.String()) != tableOf(out.String()) {
		t.Fatalf("observability changed the table:\n%s\nvs\n%s", plain.String(), out.String())
	}
}

// TestSpecClusterObservability: -trace and -metrics observe cluster
// points too. A cluster job writes one labeled stream per channel
// ("<point> r<rep> chNN"), its events split out of the run's
// channel-labeled stream by obs.ByChannel: each label's packet lines are
// exactly that channel's arrivals, and its windows' departures that
// channel's deliveries. Single-channel points keep one stream per job, and
// -progress reports every job.
func TestSpecClusterObservability(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "sweep.json")
	body := []byte(`{
		"id": "net",
		"seed": 3,
		"reps": 2,
		"base": {"arrivals": {"kind": "poisson", "rate": 0.8, "n": 400}},
		"axes": [{"name": "net", "variants": [
			{"label": "single"},
			{"label": "rr4", "patch": {"channels": 4, "router": {"kind": "roundrobin"}}}
		]}]
	}`)
	if err := os.WriteFile(spec, body, 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.ndjson")
	metricsPath := filepath.Join(dir, "metrics.ndjson")
	var errOut strings.Builder
	if err := runE([]string{"-spec", spec, "-parallel", "2", "-progress", "-trace", tracePath,
		"-metrics", metricsPath, "-window", "256"}, &strings.Builder{}, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "[4/4]") {
		t.Fatalf("missing final progress line:\n%s", errOut.String())
	}

	// Per label: packet lines in the trace, departures in the metrics.
	packets, departures := map[string]int64{}, map[string]int64{}
	for _, path := range []string{tracePath, metricsPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var rec struct {
				Type       string `json:"type"`
				Run        string `json:"run"`
				Departures int64  `json:"departures"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("%s: bad NDJSON line %q: %v", path, line, err)
			}
			switch rec.Type {
			case "packet":
				packets[rec.Run]++
			case "window":
				departures[rec.Run] += rec.Departures
			}
		}
	}

	// Reproduce every job to read what each channel arrived and delivered.
	ss, err := lowsensing.ParseSweepSpec(body)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := ss.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range sw.Points() {
		for rep := 0; rep < ss.Reps; rep++ {
			sc := p.Scenario
			sc.Seed = runner.DeriveSeed(ss.Seed, ss.ID, p.Index, rep)
			r, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s r%d", p, rep)
			if sc.Channels == 0 {
				want++
				if packets[label] != r.Arrived || departures[label] != r.Completed {
					t.Fatalf("%s: %d packet lines and %d departures, the run arrived %d and delivered %d",
						label, packets[label], departures[label], r.Arrived, r.Completed)
				}
				continue
			}
			for ch, pc := range r.PerChannel {
				want++
				l := fmt.Sprintf("%s ch%02d", label, ch)
				if packets[l] != pc.Arrived || departures[l] != pc.Completed || pc.Arrived == 0 {
					t.Fatalf("%s: %d packet lines and %d departures, channel %d arrived %d and delivered %d",
						l, packets[l], departures[l], ch, pc.Arrived, pc.Completed)
				}
			}
		}
	}
	if len(packets) != want || want != 2+2*4 {
		t.Fatalf("trace carries %d labels, want %d (2 single-channel jobs, 2 jobs x 4 channels): %v", len(packets), want, packets)
	}
}

// TestSpecChurnFaults: churn and fault specs in a sweep spec's base
// scenario reach every job, and the table's abandoned column shows it.
// The spec file is the only way in: -churn/-faults are not flags.
func TestSpecChurnFaults(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(spec, []byte(`{
		"id": "rob",
		"seed": 7,
		"base": {
			"arrivals": {"kind": "batch", "n": 64},
			"max_slots": 200000,
			"churn": {"kind": "poisson-join-leave", "rate": 0.05, "n": 32, "leave_rate": 0.02},
			"faults": {"kind": "sensing", "false_busy": 0.1}
		},
		"axes": [{"name": "protocol", "variants": [
			{"label": "lsb"},
			{"label": "beb", "patch": {"protocol": {"kind": "beb"}}}
		]}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := run([]string{"-spec", spec}, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "abandoned") {
		t.Fatalf("table missing abandoned column:\n%s", got)
	}
	// The churn spec actually bites: some point abandons packets, so the
	// abandoned column is not all zeros.
	if rows := strings.Count(got, "\n"); rows < 2 || !regexpAbandonNonzero(got) {
		t.Fatalf("churn spec produced no abandons:\n%s", got)
	}

	for _, flagName := range []string{"-churn", "-faults"} {
		if err := run([]string{"-spec", spec, flagName, `{"kind":"epochs","period":64}`}, &strings.Builder{}); err == nil ||
			!strings.Contains(err.Error(), "not defined") {
			t.Fatalf("%s: got %v, want an undefined-flag error", flagName, err)
		}
	}
}

// regexpAbandonNonzero reports whether any data row carries a nonzero
// abandoned count (column 5 of the sweep table).
func regexpAbandonNonzero(table string) bool {
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) < 10 || !strings.Contains(f[0], "protocol=") {
			continue // not a data row
		}
		if n, err := strconv.Atoi(f[4]); err == nil && n > 0 {
			return true
		}
	}
	return false
}
