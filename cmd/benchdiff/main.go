// Command benchdiff maintains the repository's benchmark trajectory
// (BENCH_engine.json): it converts `go test -bench` output into a compact,
// diffable JSON baseline and gates a new run against it on allocations.
//
//	go test -run '^$' -bench . -benchmem ./... | benchdiff -emit new.json
//	benchdiff -compare BENCH_engine.json new.json
//
// -emit parses the standard benchmark lines (name, iterations, ns/op,
// B/op, allocs/op, and any custom metrics such as events/sec) from stdin
// and writes one JSON document.
//
// -compare prints a per-benchmark table and exits nonzero when a
// properly-iterated new row allocates more per op than its baseline row,
// or has no baseline row at all, so a renamed or added benchmark cannot
// slip past the gate. Allocation counts are deterministic, so the gate is
// not noisy. Timings are printed for reference only: the baseline's rows
// are single samples taken on different machines, too noisy to gate on.
// Single-iteration rows (CI's -benchtime 1x smoke) are informational.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's recorded numbers.
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the checked-in baseline document.
type File struct {
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run dispatches the -emit / -compare modes; split from main for testing.
func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		emit    = fs.String("emit", "", "parse `go test -bench` output from stdin and write a JSON baseline to this file")
		compare = fs.Bool("compare", false, "gate new.json against old.json on allocs/op: benchdiff -compare old.json new.json")
		note    = fs.String("note", "", "with -emit, a provenance note recorded in the baseline (machine, benchtime, commit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *emit != "" && *compare:
		return fmt.Errorf("-emit and -compare are mutually exclusive")
	case *emit != "":
		f, err := Parse(in)
		if err != nil {
			return err
		}
		if len(f.Benchmarks) == 0 {
			return fmt.Errorf("no benchmark lines found on stdin")
		}
		f.Note = *note
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*emit, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d benchmarks to %s\n", len(f.Benchmarks), *emit)
		return nil
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two files: old.json new.json")
		}
		return Compare(fs.Arg(0), fs.Arg(1), out)
	default:
		return fmt.Errorf("one of -emit or -compare is required")
	}
}

// Parse reads `go test -bench` text output and collects every benchmark
// result line. Lines that are not benchmark results (build chatter, pkg
// headers, PASS/ok) are ignored; malformed Benchmark* lines are an error,
// so a truncated CI log cannot silently produce an empty baseline.
func Parse(r io.Reader) (File, error) {
	var f File
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is "Name  N  value unit [value unit ...]".
		if len(fields) < 4 || len(fields)%2 != 0 {
			return f, fmt.Errorf("malformed benchmark line: %q", line)
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return f, fmt.Errorf("malformed iteration count in %q: %v", line, err)
		}
		b := Benchmark{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return f, fmt.Errorf("malformed value %q in %q: %v", fields[i], line, err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		f.Benchmarks = append(f.Benchmarks, b)
	}
	return f, sc.Err()
}

// Compare loads two baselines, prints a table to out, and fails on two
// conditions of a properly-iterated new row: an allocs/op increase
// (allocation counts are deterministic, so an increase is a real
// regression — this is how CI guards the engine's zero-allocation hot
// path) and a missing baseline row (otherwise renaming a benchmark would
// drop it from the gate unnoticed). Timings are printed, never judged.
func Compare(oldPath, newPath string, out io.Writer) error {
	oldF, err := load(oldPath)
	if err != nil {
		return err
	}
	newF, err := load(newPath)
	if err != nil {
		return err
	}
	oldBy := map[string]Benchmark{}
	for _, b := range oldF.Benchmarks {
		oldBy[stripProcs(b.Name)] = b
	}
	names := make([]string, 0, len(newF.Benchmarks))
	newBy := map[string]Benchmark{}
	for _, b := range newF.Benchmarks {
		n := stripProcs(b.Name)
		newBy[n] = b
		names = append(names, n)
	}
	sort.Strings(names)

	allocRegressions := 0
	unbaselined := 0
	fmt.Fprintf(out, "%-60s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, n := range names {
		nb := newBy[n]
		ob, ok := oldBy[n]
		if !ok || ob.NsPerOp == 0 {
			mark := ""
			if !ok && nb.Iterations > 1 {
				mark = "  FAIL: no baseline row"
				unbaselined++
			}
			fmt.Fprintf(out, "%-60s %14s %14.1f %9s%s\n", n, "-", nb.NsPerOp, "new", mark)
			continue
		}
		delta := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp * 100
		mark := ""
		switch {
		case ob.Iterations == 1 || nb.Iterations == 1:
			// A single-iteration side (CI's -benchtime 1x smoke) is not
			// comparable to a real run: one-time setup allocations are not
			// amortized, so gating on it would be pure noise. The row is
			// informational only.
			mark = "  (single-iteration run; informational)"
		case nb.AllocsPerOp > ob.AllocsPerOp:
			// Between properly-iterated runs, allocations per op are
			// deterministic no matter how noisy the timings are, so any
			// increase is a real regression.
			mark = fmt.Sprintf("  FAIL: allocs/op %g -> %g", ob.AllocsPerOp, nb.AllocsPerOp)
			allocRegressions++
		}
		fmt.Fprintf(out, "%-60s %14.1f %14.1f %+8.1f%%%s\n", n, ob.NsPerOp, nb.NsPerOp, delta, mark)
	}
	for _, n := range sortedKeys(oldBy) {
		if _, ok := newBy[n]; !ok {
			fmt.Fprintf(out, "%-60s %14.1f %14s %9s\n", n, oldBy[n].NsPerOp, "-", "gone")
		}
	}
	if allocRegressions > 0 {
		return fmt.Errorf("%d benchmark(s) regressed allocs/op", allocRegressions)
	}
	if unbaselined > 0 {
		return fmt.Errorf("%d benchmark(s) have no baseline row; add them to the baseline", unbaselined)
	}
	fmt.Fprintln(out, "no allocation regressions")
	return nil
}

func load(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("%s: %v", path, err)
	}
	return f, nil
}

// stripProcs removes the trailing -N GOMAXPROCS suffix so baselines from
// machines with different core counts still match up.
func stripProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func sortedKeys(m map[string]Benchmark) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
