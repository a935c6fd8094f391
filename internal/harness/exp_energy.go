package harness

import (
	"fmt"
	"math"

	"lowsensing"
	"lowsensing/internal/core"
	"lowsensing/internal/jamming"
	"lowsensing/internal/metrics"
	"lowsensing/internal/stats"
	"lowsensing/obs"
)

func init() {
	register(Experiment{
		ID:    "E2",
		Title: "Per-packet channel accesses vs N",
		Claim: "Thm 1.6: every packet makes O(polylog N) channel accesses",
		Run:   runE2,
	})
	register(Experiment{
		ID:    "E6",
		Title: "Reactive jamming targeted at one packet",
		Claim: "Thm 1.9: the target pays O((J+1)·polylog N) accesses but the average stays O(polylog N)",
		Run:   runE6,
	})
	register(Experiment{
		ID:    "E7",
		Title: "Energy comparison across protocols",
		Claim: "LSB is the only constant-throughput protocol with polylog listens (full energy efficiency)",
		Run:   runE7,
	})
}

func runE2(rc RunConfig) (*Table, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	ns := pick(rc, []int64{64, 128, 256, 512}, []int64{256, 1024, 4096, 16384, 65536})

	t := &Table{
		ID:      "E2",
		Title:   "LSB per-packet channel accesses vs N (batch)",
		Claim:   "mean and max accesses grow polylogarithmically",
		Columns: []string{"N", "meanAcc", "p99Acc", "maxAcc", "ln^2 N", "ln^3 N"},
	}

	type e2rep struct{ mean, p99, max float64 }
	grouped, err := sweep(rc, "E2", len(ns), func(point, _ int, seed uint64) (e2rep, error) {
		n := ns[point]
		r, err := run(seed, lowsensing.Scenario{
			Arrivals: lowsensing.BatchArrivals(n),
			MaxSlots: capFor(n, 0),
		})
		if err != nil {
			return e2rep{}, err
		}
		es := lowsensing.SummarizeEnergy(r)
		return e2rep{mean: es.Accesses.Mean, p99: es.Accesses.P99, max: es.Accesses.Max}, nil
	})
	if err != nil {
		return nil, err
	}

	var xs, means, maxes []float64
	for point, reps := range grouped {
		n := ns[point]
		meanAcc := repMean(reps, func(r e2rep) float64 { return r.mean })
		p99 := repMean(reps, func(r e2rep) float64 { return r.p99 })
		maxAcc := repMax(reps, func(r e2rep) float64 { return r.max })
		ln := math.Log(float64(n))
		t.AddRow(d(n), f(meanAcc), f(p99), f(maxAcc), f(ln*ln), f(ln*ln*ln))
		xs = append(xs, float64(n))
		means = append(means, meanAcc)
		maxes = append(maxes, maxAcc)
	}

	meanFit := stats.ClassifyGrowth(xs, means)
	maxFit := stats.ClassifyGrowth(xs, maxes)
	t.AddNote("mean accesses growth: %s (polylog exponent %.2f, power exponent %.3f)",
		meanFit.Class, meanFit.PolylogExponent, meanFit.PowerExponent)
	t.AddNote("max accesses growth: %s (polylog exponent %.2f, power exponent %.3f)",
		maxFit.Class, maxFit.PolylogExponent, maxFit.PowerExponent)
	t.AddNote("paper predicts polylog for both; polynomial would falsify Thm 1.6")
	return t, nil
}

func runE6(rc RunConfig) (*Table, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	n := pick(rc, int64(256), int64(1024))
	budgets := []int64{0, 4, 16, 64, 256}
	// Second clause of Thm 1.9: a *global* reactive jammer (jams every slot
	// in which anyone sends, budget J). The average access count may grow
	// only like (J/N + 1)·polylog.
	globalBudgets := []int64{0, n / 4, n, 4 * n}

	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("Reactive jamming (N=%d batch): targeted at packet 0, and global", n),
		Claim:   "target accesses grow with J; average accesses stay O((J/N+1)·polylog)",
		Columns: []string{"jammer", "J", "targetAcc", "meanAcc", "maxAcc", "jamsSpent", "delivered"},
	}

	type e6rep struct {
		targetAcc, meanAcc, maxAcc, spent, deliv float64
	}
	points := len(budgets) + len(globalBudgets)
	grouped, err := sweep(rc, "E6", points, func(point, _ int, seed uint64) (e6rep, error) {
		targeted := point < len(budgets)
		var budget int64
		if targeted {
			budget = budgets[point]
		} else {
			budget = globalBudgets[point-len(budgets)]
		}
		var spent func() int64
		var targetAcc float64
		sc := lowsensing.Scenario{
			Arrivals: lowsensing.BatchArrivals(n),
			MaxSlots: capFor(n, budget),
		}
		opts := []lowsensing.Option{
			// The victim's access count streams out through the sink; the
			// fleet-wide mean and max come from the accumulators.
			lowsensing.WithRecorder(obs.PacketFunc(func(p obs.PacketEvent) {
				if p.ID == 0 {
					targetAcc = float64(p.Accesses())
				}
			})),
		}
		if budget > 0 {
			// The global ReactiveAll jammer and the Spent() diagnostics have
			// no declarative spec, so both reactive adversaries are built as
			// instances and injected with WithJammer.
			if targeted {
				jam, err := jamming.NewReactiveTargeted(0, budget)
				if err != nil {
					return e6rep{}, err
				}
				spent = jam.Spent
				opts = append(opts, lowsensing.WithJammer(jam))
			} else {
				jam := jamming.NewReactiveAll(budget)
				spent = jam.Spent
				opts = append(opts, lowsensing.WithJammer(jam))
			}
		}
		r, err := run(seed, sc, opts...)
		if err != nil {
			return e6rep{}, err
		}
		out := e6rep{
			targetAcc: targetAcc,
			meanAcc:   r.MeanAccesses(),
			maxAcc:    float64(r.MaxAccesses()),
			deliv:     float64(r.Completed) / float64(r.Arrived),
		}
		if spent != nil {
			out.spent = float64(spent())
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	var targetAccs, meanAccs, globalMeans []float64
	for point, reps := range grouped {
		targeted := point < len(budgets)
		meanAcc := repMean(reps, func(r e6rep) float64 { return r.meanAcc })
		maxAcc := repMax(reps, func(r e6rep) float64 { return r.maxAcc })
		spent := repMean(reps, func(r e6rep) float64 { return r.spent })
		deliv := repMean(reps, func(r e6rep) float64 { return r.deliv })
		if targeted {
			targetAcc := repMean(reps, func(r e6rep) float64 { return r.targetAcc })
			t.AddRow("targeted", d(budgets[point]), f(targetAcc), f(meanAcc), f(maxAcc), f(spent), f(deliv))
			targetAccs = append(targetAccs, targetAcc)
			meanAccs = append(meanAccs, meanAcc)
		} else {
			t.AddRow("global", d(globalBudgets[point-len(budgets)]), "-", f(meanAcc), f(maxAcc), f(spent), f(deliv))
			globalMeans = append(globalMeans, meanAcc)
		}
	}

	t.AddNote("targeted: victim accesses grow %.1fx from J=0 to J=%d while the mean moves %.2fx",
		targetAccs[len(targetAccs)-1]/targetAccs[0], budgets[len(budgets)-1],
		meanAccs[len(meanAccs)-1]/meanAccs[0])
	t.AddNote("global: J=4N inflates the MEAN only %.1fx — the (J/N+1) factor of Thm 1.9",
		globalMeans[len(globalMeans)-1]/globalMeans[0])
	return t, nil
}

func runE7(rc RunConfig) (*Table, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	n := pick(rc, int64(256), int64(2048))

	rows := []struct {
		name  string
		proto lowsensing.ProtocolSpec
	}{
		{"LSB", lsbSpec()},
		{"BEB", lowsensing.BEB()},
		{"Poly(a=2)", lowsensing.Poly(2, 2)},
		{"ALOHA 1/N", lowsensing.Aloha(1 / float64(n))},
		{"MWU", lowsensing.MWU()},
		{"Genie", lowsensing.GenieAloha()},
	}

	t := &Table{
		ID:      "E7",
		Title:   fmt.Sprintf("Protocol comparison (N=%d batch)", n),
		Claim:   "only LSB combines Θ(1) throughput with polylog sends AND listens",
		Columns: []string{"protocol", "tput", "S", "sends/pkt", "listens/pkt", "acc/pkt", "maxAcc"},
	}

	type e7rep struct {
		tput, activeS, sends, listens, acc, maxAcc float64
	}
	grouped, err := sweep(rc, "E7", len(rows), func(point, _ int, seed uint64) (e7rep, error) {
		r, err := run(seed, lowsensing.Scenario{
			Arrivals: lowsensing.BatchArrivals(n),
			Protocol: rows[point].proto,
			MaxSlots: capFor(n, 0) * 20, // fixed-rate ALOHA needs ~N·ln N slots
		})
		if err != nil {
			return e7rep{}, err
		}
		es := lowsensing.SummarizeEnergy(r)
		return e7rep{
			tput:    r.Throughput(),
			activeS: float64(r.ActiveSlots),
			sends:   es.Sends.Mean,
			listens: es.Listens.Mean,
			acc:     es.Accesses.Mean,
			maxAcc:  es.Accesses.Max,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	var lsbListens, mwuListens float64
	for point, reps := range grouped {
		listens := repMean(reps, func(r e7rep) float64 { return r.listens })
		t.AddRow(rows[point].name,
			f(repMean(reps, func(r e7rep) float64 { return r.tput })),
			f(repMean(reps, func(r e7rep) float64 { return r.activeS })),
			f(repMean(reps, func(r e7rep) float64 { return r.sends })),
			f(listens),
			f(repMean(reps, func(r e7rep) float64 { return r.acc })),
			f(repMax(reps, func(r e7rep) float64 { return r.maxAcc })))
		switch rows[point].name {
		case "LSB":
			lsbListens = listens
		case "MWU":
			mwuListens = listens
		}
	}
	t.AddNote("LSB listens/packet = %.1f vs full-sensing MWU = %.1f (%.0fx reduction); genie energy is not meaningful (oracle)",
		lsbListens, mwuListens, mwuListens/math.Max(lsbListens, 1))
	return t, nil
}

// potentialCollector is shared by E8 and tests: a collector plus the regime
// bounds used to label samples.
func potentialCollector() (*metrics.Collector, core.RegimeBounds) {
	return &metrics.Collector{}, core.DefaultRegimeBounds(core.Default())
}
