package harness

import (
	"fmt"
	"strings"

	"lowsensing"
	"lowsensing/internal/core"
	"lowsensing/internal/metrics"
	"lowsensing/internal/plot"
	"lowsensing/internal/sim"
	"lowsensing/internal/stats"
	"lowsensing/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "E4",
		Title: "Backlog under adversarial-queuing arrivals",
		Claim: "Cor 1.5: with rate λ and granularity S, backlog is O(S) at all times",
		Run:   runE4,
	})
	register(Experiment{
		ID:    "E5",
		Title: "Energy under adversarial-queuing arrivals",
		Claim: "Thm 1.7: per-packet accesses are O(polylog S)",
		Run:   runE5,
	})
	register(Experiment{
		ID:    "E8",
		Title: "Potential-function trajectory",
		Claim: "§4.2: Φ(t) = α1·N + α2·H + α3·L drains at Ω(1)/slot amortized once arrivals stop",
		Run:   runE8,
	})
	register(Experiment{
		ID:    "E9",
		Title: "Slot-level trace of the Figure-1 algorithm",
		Claim: "Figure 1: windows and sensing behave as specified; the channel shows collisions resolving into successes",
		Run:   runE9,
	})
	register(Experiment{
		ID:    "A1",
		Title: "Ablation: slow multiplicative updates vs binary doubling",
		Claim: "Figure 1: the 1+1/(c·ln w) update factor is what makes slow feedback stable; doubling overshoots",
		Run:   runA1,
	})
	register(Experiment{
		ID:    "A2",
		Title: "Ablation: sensitivity to c and w_min",
		Claim: "Figure 1's constants c and w_min trade throughput against energy inside the region w_min/ln^k(w_min) >= c",
		Run:   runA2,
	})
	register(Experiment{
		ID:    "A3",
		Title: "Ablation: the ln-power exponent k",
		Claim: "the paper sets the access probability to c·ln³(w)/w; k tunes how much rarer listening is than sending",
		Run:   runA3,
	})
}

// aqtRun executes one adversarial-queuing run through the public API and
// returns the collector and result. The run is truncated at the end of the
// arrival stream; packets still in flight there are expected and excluded
// from latency stats.
func aqtRun(seed uint64, s int64, lambda float64, windows int64, every int64) (*metrics.Collector, sim.Result, error) {
	col := &metrics.Collector{Every: every}
	r, err := run(seed, lowsensing.Scenario{
		Arrivals: lowsensing.QueueArrivals(s, lambda, windows),
		MaxSlots: s * windows,
	}, lowsensing.WithRecorder(col))
	return col, r, err
}

func runE4(rc RunConfig) (*Table, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	lambdas := pick(rc, []float64{0.1}, []float64{0.05, 0.1, 0.2})
	ss := pick(rc, []int64{128, 256, 512}, []int64{256, 1024, 4096})
	windows := pick(rc, int64(20), int64(50))

	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("Max backlog under AQT arrivals (%d windows, burst placement)", windows),
		Claim:   "max backlog = O(S)",
		Columns: []string{"lambda", "S", "quota/window", "maxBacklog", "backlog/S", "delivered"},
	}

	// Sweep points enumerate the (λ, S) grid row-major.
	type e4rep struct{ maxB, deliv float64 }
	grouped, err := sweep(rc, "E4", len(lambdas)*len(ss), func(point, _ int, seed uint64) (e4rep, error) {
		lambda := lambdas[point/len(ss)]
		s := ss[point%len(ss)]
		col, r, err := aqtRun(seed, s, lambda, windows, max(1, s/64))
		if err != nil {
			return e4rep{}, err
		}
		return e4rep{
			maxB:  float64(col.MaxBacklog()),
			deliv: float64(r.Completed) / float64(r.Arrived),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	for li, lambda := range lambdas {
		var xs, ratios []float64
		for si, s := range ss {
			reps := grouped[li*len(ss)+si]
			maxB := repMax(reps, func(r e4rep) float64 { return r.maxB })
			deliv := repMean(reps, func(r e4rep) float64 { return r.deliv })
			quota := int64(lambda * float64(s))
			t.AddRow(f(lambda), d(s), d(quota), f(maxB), f(maxB/float64(s)), f(deliv))
			xs = append(xs, float64(s))
			ratios = append(ratios, maxB/float64(s))
		}
		if len(xs) >= 3 {
			fit := stats.ClassifyGrowth(xs, ratios)
			t.AddNote("λ=%.2f: backlog/S growth class %s — O(S) backlog means this ratio stays flat (or falls)",
				lambda, fit.Class)
		}
	}
	return t, nil
}

func runE5(rc RunConfig) (*Table, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	lambda := 0.1
	ss := pick(rc, []int64{128, 256, 512}, []int64{256, 1024, 4096, 16384})
	windows := pick(rc, int64(20), int64(40))

	t := &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("Per-packet accesses under AQT arrivals (λ=%.2f, %d windows)", lambda, windows),
		Claim:   "accesses per packet = O(polylog S)",
		Columns: []string{"S", "meanAcc", "p99Acc", "maxAcc", "delivered"},
	}

	type e5rep struct{ meanAcc, p99, maxAcc, deliv float64 }
	grouped, err := sweep(rc, "E5", len(ss), func(point, _ int, seed uint64) (e5rep, error) {
		s := ss[point]
		_, r, err := aqtRun(seed, s, lambda, windows, s)
		if err != nil {
			return e5rep{}, err
		}
		es := lowsensing.SummarizeEnergy(r)
		return e5rep{
			meanAcc: es.Accesses.Mean,
			p99:     es.Accesses.P99,
			maxAcc:  es.Accesses.Max,
			deliv:   float64(r.Completed) / float64(r.Arrived),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	var xs, means []float64
	for point, reps := range grouped {
		meanAcc := repMean(reps, func(r e5rep) float64 { return r.meanAcc })
		t.AddRow(d(ss[point]),
			f(meanAcc),
			f(repMean(reps, func(r e5rep) float64 { return r.p99 })),
			f(repMax(reps, func(r e5rep) float64 { return r.maxAcc })),
			f(repMean(reps, func(r e5rep) float64 { return r.deliv })))
		xs = append(xs, float64(ss[point]))
		means = append(means, meanAcc)
	}
	if len(xs) >= 3 {
		fit := stats.ClassifyGrowth(xs, means)
		t.AddNote("mean accesses growth in S: %s (power exponent %.3f) — polynomial would falsify Thm 1.7",
			fit.Class, fit.PowerExponent)
	}
	return t, nil
}

func runE8(rc RunConfig) (*Table, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	n := pick(rc, int64(128), int64(1024))
	col, bounds := potentialCollector()
	r, err := one(rc, "E8", lowsensing.Scenario{
		Arrivals: lowsensing.BatchArrivals(n),
		MaxSlots: capFor(n, 0),
	}, lowsensing.WithRecorder(col))
	if err != nil {
		return nil, err
	}
	if r.Completed != n {
		return nil, fmt.Errorf("harness E8: run incomplete (%d/%d)", r.Completed, n)
	}

	t := &Table{
		ID:      "E8",
		Title:   fmt.Sprintf("Potential Φ(t) trajectory (N=%d batch, single run)", n),
		Claim:   "Φ decreases at an amortized Ω(1) rate; contention passes through high→good regimes",
		Columns: []string{"slot", "backlog", "C(t)", "regime", "Phi", "a1*N", "a2*H", "a3*L"},
	}
	samples := col.Samples()
	params := core.DefaultPotentialParams()
	checkpoints := 12
	for i := 0; i < checkpoints; i++ {
		idx := i * (len(samples) - 1) / (checkpoints - 1)
		s := samples[idx]
		t.AddRow(
			d(s.Slot), d(s.Backlog), f(s.Contention), bounds.Classify(s.Contention).String(),
			f(s.Potential.Phi), f(params.Alpha1*s.Potential.N), f(params.Alpha2*s.Potential.H),
			f(params.Alpha3*s.Potential.L),
		)
	}

	// Amortized drain: Φ(0)/makespan should be Ω(1) bounded.
	phi0 := samples[0].Potential.Phi
	t.AddNote("Φ(start)=%.1f drains to 0 over %d active slots: %.3f per slot", phi0, r.ActiveSlots,
		phi0/float64(r.ActiveSlots))
	t.AddNote("Phi(t):     |%s|", plot.Sparkline(downsample(col.Series("phi"), 64)))
	t.AddNote("backlog(t): |%s|", plot.Sparkline(downsample(col.Series("backlog"), 64)))
	t.AddNote("C(t):       |%s|", plot.Sparkline(downsample(col.Series("contention"), 64)))
	regimes := map[core.Regime]int{}
	for _, s := range samples {
		regimes[bounds.Classify(s.Contention)]++
	}
	t.AddNote("sampled regimes: high=%d good=%d low=%d of %d", regimes[core.RegimeHigh],
		regimes[core.RegimeGood], regimes[core.RegimeLow], len(samples))
	return t, nil
}

func runE9(rc RunConfig) (*Table, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	const n = 8
	tr := &trace.Tracer{}
	r, err := one(rc, "E9", lowsensing.Scenario{
		Arrivals: lowsensing.BatchArrivals(n),
		MaxSlots: capFor(n, 0),
	}, lowsensing.WithRecorder(tr))
	if err != nil {
		return nil, err
	}
	succ, coll, empty, jammed := tr.CountOutcomes()
	t := &Table{
		ID:      "E9",
		Title:   fmt.Sprintf("Slot trace, N=%d batch (S=success, x=collision, .=heard-empty, !=jam)", n),
		Claim:   "Figure 1 behaviour at slot granularity",
		Columns: []string{"outcome", "slots"},
	}
	t.AddRow("success", d(int64(succ)))
	t.AddRow("collision", d(int64(coll)))
	t.AddRow("heard-empty", d(int64(empty)))
	t.AddRow("jammed", d(int64(jammed)))
	t.AddRow("active slots", d(r.ActiveSlots))
	for _, line := range strings.Split(tr.Timeline(76), "\n") {
		t.AddNote("%s", line)
	}
	return t, nil
}

func runA1(rc RunConfig) (*Table, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	n := pick(rc, int64(256), int64(1024))
	aqtS := pick(rc, int64(256), int64(1024))
	windows := pick(rc, int64(20), int64(40))

	rules := []struct {
		name string
		cfg  core.Config
	}{
		{"paper 1+1/(c·ln w)", core.Default()},
		{"doubling", func() core.Config {
			c := core.Default()
			c.Update = core.UpdateDoubling
			return c
		}()},
	}

	t := &Table{
		ID:      "A1",
		Title:   fmt.Sprintf("Update-rule ablation (batch N=%d; AQT S=%d λ=0.1)", n, aqtS),
		Claim:   "the paper's slow factor beats doubling on stability under slow feedback",
		Columns: []string{"rule", "batchTput", "meanAcc", "maxAcc", "aqtMaxBacklog/S"},
	}

	// Each job runs one rule's batch rep AND its AQT burst-stability rep
	// with the same seed, mirroring the paired structure of the old serial
	// loops.
	type a1rep struct{ tput, meanAcc, maxAcc, aqtMaxB float64 }
	grouped, err := sweep(rc, "A1", len(rules), func(point, _ int, seed uint64) (a1rep, error) {
		cfg := rules[point].cfg
		r, err := run(seed, lowsensing.Scenario{
			Arrivals: lowsensing.BatchArrivals(n),
			Protocol: lowsensing.LowSensing(cfg),
			MaxSlots: capFor(n, 0),
		})
		if err != nil {
			return a1rep{}, err
		}
		out := a1rep{
			tput:    r.Throughput(),
			meanAcc: r.MeanAccesses(),
			maxAcc:  float64(r.MaxAccesses()),
		}
		// Burst stability: AQT max backlog.
		col := &metrics.Collector{Every: max(1, aqtS/64)}
		if _, err := run(seed, lowsensing.Scenario{
			Arrivals: lowsensing.QueueArrivals(aqtS, 0.1, windows),
			Protocol: lowsensing.LowSensing(cfg),
			MaxSlots: aqtS * windows,
		}, lowsensing.WithRecorder(col)); err != nil {
			return a1rep{}, err
		}
		out.aqtMaxB = float64(col.MaxBacklog())
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	for point, reps := range grouped {
		t.AddRow(rules[point].name,
			f(repMean(reps, func(r a1rep) float64 { return r.tput })),
			f(repMean(reps, func(r a1rep) float64 { return r.meanAcc })),
			f(repMax(reps, func(r a1rep) float64 { return r.maxAcc })),
			f(repMax(reps, func(r a1rep) float64 { return r.aqtMaxB })/float64(aqtS)))
	}
	return t, nil
}

func runA2(rc RunConfig) (*Table, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	n := pick(rc, int64(256), int64(1024))

	t := &Table{
		ID:      "A2",
		Title:   fmt.Sprintf("Parameter sweep (batch N=%d)", n),
		Claim:   "valid (c, w_min) pairs trade throughput against energy",
		Columns: []string{"c", "w_min", "valid", "tput", "meanAcc", "maxAcc"},
	}

	type combo struct {
		c, wmin float64
		cfg     core.Config
		valid   bool
	}
	var combos []combo
	for _, c := range []float64{0.25, 0.5, 1, 2} {
		for _, wmin := range []float64{8, 32, 128} {
			cfg := core.Config{C: c, WMin: wmin, LnPower: 3}
			combos = append(combos, combo{c: c, wmin: wmin, cfg: cfg, valid: cfg.Validate() == nil})
		}
	}

	type a2rep struct{ tput, meanAcc, maxAcc float64 }
	grouped, err := sweep(rc, "A2", len(combos), func(point, _ int, seed uint64) (a2rep, error) {
		if !combos[point].valid {
			return a2rep{}, nil
		}
		r, err := run(seed, lowsensing.Scenario{
			Arrivals: lowsensing.BatchArrivals(n),
			Protocol: lowsensing.LowSensing(combos[point].cfg),
			MaxSlots: capFor(n, 0) * 4,
		})
		if err != nil {
			return a2rep{}, err
		}
		return a2rep{tput: r.Throughput(), meanAcc: r.MeanAccesses(), maxAcc: float64(r.MaxAccesses())}, nil
	})
	if err != nil {
		return nil, err
	}

	for point, reps := range grouped {
		cb := combos[point]
		if !cb.valid {
			t.AddRow(f(cb.c), f(cb.wmin), "no", "-", "-", "-")
			continue
		}
		t.AddRow(f(cb.c), f(cb.wmin), "yes",
			f(repMean(reps, func(r a2rep) float64 { return r.tput })),
			f(repMean(reps, func(r a2rep) float64 { return r.meanAcc })),
			f(repMax(reps, func(r a2rep) float64 { return r.maxAcc })))
	}
	t.AddNote("constraint: c·ln³(w_min) <= w_min; invalid combinations are rejected by core.Config.Validate")
	return t, nil
}

func runA3(rc RunConfig) (*Table, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	n := pick(rc, int64(256), int64(1024))

	t := &Table{
		ID:      "A3",
		Title:   fmt.Sprintf("ln-power ablation (batch N=%d; c and w_min adjusted per k to stay valid)", n),
		Claim:   "higher k = rarer listening per send; k=0 collapses to pure ALOHA-style sending with feedback",
		Columns: []string{"k", "c", "w_min", "tput", "sends/pkt", "listens/pkt", "maxAcc"},
	}

	// Each k needs parameters satisfying c·ln^k(w_min) <= w_min; keep c
	// fixed and raise w_min as k grows.
	configs := []core.Config{
		{C: 0.5, WMin: 8, LnPower: 0},
		{C: 0.5, WMin: 8, LnPower: 1},
		{C: 0.5, WMin: 8, LnPower: 2},
		{C: 0.5, WMin: 8, LnPower: 3},
		{C: 0.1, WMin: 256, LnPower: 4}, // the k=4 constraint forces a big w_min
	}
	for _, cfg := range configs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("harness A3: config k=%v: %v", cfg.LnPower, err)
		}
	}

	type a3rep struct{ tput, sends, listens, maxAcc float64 }
	grouped, err := sweep(rc, "A3", len(configs), func(point, _ int, seed uint64) (a3rep, error) {
		r, err := run(seed, lowsensing.Scenario{
			Arrivals: lowsensing.BatchArrivals(n),
			Protocol: lowsensing.LowSensing(configs[point]),
			MaxSlots: capFor(n, 0) * 4,
		})
		if err != nil {
			return a3rep{}, err
		}
		es := lowsensing.SummarizeEnergy(r)
		return a3rep{
			tput:    r.Throughput(),
			sends:   es.Sends.Mean,
			listens: es.Listens.Mean,
			maxAcc:  es.Accesses.Max,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	for point, reps := range grouped {
		cfg := configs[point]
		t.AddRow(f(cfg.LnPower), f(cfg.C), f(cfg.WMin),
			f(repMean(reps, func(r a3rep) float64 { return r.tput })),
			f(repMean(reps, func(r a3rep) float64 { return r.sends })),
			f(repMean(reps, func(r a3rep) float64 { return r.listens })),
			f(repMax(reps, func(r a3rep) float64 { return r.maxAcc })))
	}
	t.AddNote("k=0 means every access sends (no pure listening): the feedback loop starves and throughput suffers; k>=2 restores it")
	return t, nil
}

// downsample reduces xs to at most n points by striding.
func downsample(xs []float64, n int) []float64 {
	if n <= 0 || len(xs) <= n {
		return xs
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xs[i*len(xs)/n])
	}
	return out
}
