package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// compare reads two -out files (each one or more runs, one JSON line per
// run) and prints, for every workload and end-to-end metric both hold,
// each side's median and quartiles, the change of the median, and the
// metric's bound from BENCHMARK.json. A side's quartiles are taken over
// its runs' medians when the file holds several runs, so that its spread
// is run to run, and over the one run's per-pass samples otherwise. A pair
// is "unresolved" when either side's spread, (q3-q1)/median, exceeds the
// bound; it is a "regression" when the median grew by more
// than the bound and by more than the metric's minChange, and any growth
// of error_rate is one. The exit code is 1 when there is a regression.
func compare(root, pathA, pathB string, stdout, stderr io.Writer) int {
	bm, err := readBenchmarkJSON(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := readRuns(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readRuns(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	names := bm.endToEndNames()
	for _, extra := range []string{"ns_per_event", "error_rate"} {
		if !slices.Contains(names, extra) {
			names = append(names, extra)
		}
	}
	fmt.Fprintf(stdout, "%-22s %-12s %32s %32s %8s %6s  %s\n", "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "delta", "bound", "verdict")
	regressed := false
	for _, wl := range a.order {
		for _, name := range names {
			xa, xb := a.values(wl, name), b.values(wl, name)
			bound, ok := bm.bound(name)
			if len(xa) == 0 || len(xb) == 0 || !ok {
				continue
			}
			q1a, ma, q3a := quartiles(xa)
			q1b, mb, q3b := quartiles(xb)
			delta := ratio(mb-ma, ma)
			verdict := "ok"
			switch {
			case name == "error_rate":
				if mb > ma {
					verdict = "regression"
				}
			case ratio(q3a-q1a, ma) > bound || ratio(q3b-q1b, mb) > bound:
				verdict = "unresolved"
			case delta > bound && mb-ma > minChange[name]:
				verdict = "regression"
			}
			regressed = regressed || verdict == "regression"
			fmt.Fprintf(stdout, "%-22s %-12s %9.4g [%9.4g, %9.4g] %9.4g [%9.4g, %9.4g] %+7.1f%% %5.0f%%  %s\n",
				wl, name, ma, q1a, q3a, mb, q1b, q3b, 100*delta, 100*bound, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// minChange is the smallest growth that counts as a regression, for
// metrics whose relative bound alone would flag changes too small to
// matter to anyone: microseconds of setup, a few pages of resident memory.
var minChange = map[string]float64{"setup_s": 0.002, "peak_rss_mb": 4}

// runSamples holds one -out file's values per workload and metric: each
// run's value, and the per-pass samples of every run, pooled.
type runSamples struct {
	order  []string
	runs   map[string]map[string][]float64
	passes map[string]map[string][]float64
}

// values returns what one side's quartiles are taken over.
func (rs runSamples) values(wl, name string) []float64 {
	if r := rs.runs[wl][name]; len(r) == 1 && len(rs.passes[wl][name]) > 0 {
		return rs.passes[wl][name]
	}
	return rs.runs[wl][name]
}

func readRuns(path string) (runSamples, error) {
	rs := runSamples{runs: map[string]map[string][]float64{}, passes: map[string]map[string][]float64{}}
	f, err := os.Open(path)
	if err != nil {
		return rs, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		var run struct {
			Workloads []wlResult `json:"workloads"`
		}
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			return rs, fmt.Errorf("%s: %w", path, err)
		}
		for _, w := range run.Workloads {
			if rs.runs[w.Name] == nil {
				rs.runs[w.Name] = map[string][]float64{}
				rs.passes[w.Name] = map[string][]float64{}
				rs.order = append(rs.order, w.Name)
			}
			for _, s := range w.Metrics {
				rs.runs[w.Name][s.Name] = append(rs.runs[w.Name][s.Name], s.Value)
				rs.passes[w.Name][s.Name] = append(rs.passes[w.Name][s.Name], s.Samples...)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs.order) == 0 {
		return rs, fmt.Errorf("%s: no runs", path)
	}
	return rs, nil
}
