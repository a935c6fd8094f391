package harness

import (
	"fmt"

	"lowsensing"
	"lowsensing/internal/jamming"
	"lowsensing/internal/stats"
)

// capFor returns a generous MaxSlots bound for a batch of n packets plus j
// jammed slots: far above anything a healthy protocol needs, so truncation
// signals a real failure.
func capFor(n, j int64) int64 {
	return 500*(n+j) + (1 << 20)
}

// lsbSpec is the default protocol spec (LOW-SENSING BACKOFF, DefaultConfig).
func lsbSpec() lowsensing.ProtocolSpec { return lowsensing.ProtocolSpec{} }

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Batch throughput vs N",
		Claim: "Cor 1.4: LSB throughput is Θ(1) in N; BEB decays like O(1/ln N); genie ALOHA ~1/e is the ceiling",
		Run:   runE1,
	})
	register(Experiment{
		ID:    "E3",
		Title: "Throughput under jamming",
		Claim: "Cor 1.4 with jamming: throughput (T+J)/S stays Θ(1) however many slots are jammed",
		Run:   runE3,
	})
}

func runE1(rc RunConfig) (*Table, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	ns := pick(rc, []int64{64, 128, 256, 512}, []int64{256, 512, 1024, 2048, 4096, 8192, 16384, 32768})
	// Full-sensing protocols cost O(N·makespan) engine events; cap where
	// they are measured and report "-" beyond.
	fullSenseCap := pick(rc, int64(256), int64(4096))

	t := &Table{
		ID:      "E1",
		Title:   "Batch throughput vs N",
		Claim:   "LSB flat; BEB decaying ~1/ln N",
		Columns: []string{"N", "LSB", "BEB", "MWU", "Genie", "LSB/BEB"},
	}

	// One job per (N, rep): it runs every protocol at that N with the same
	// seed, so the per-rep cross-protocol comparison stays paired.
	type e1rep struct {
		lsb, beb, mwu, genie float64
		full                 bool
	}
	grouped, err := sweep(rc, "E1", len(ns), func(point, _ int, seed uint64) (e1rep, error) {
		n := ns[point]
		tput := func(proto lowsensing.ProtocolSpec) (float64, error) {
			r, err := run(seed, lowsensing.Scenario{
				Arrivals: lowsensing.BatchArrivals(n),
				MaxSlots: capFor(n, 0),
				Protocol: proto,
			})
			if err != nil {
				return 0, err
			}
			return r.Throughput(), nil
		}
		var out e1rep
		var err error
		if out.lsb, err = tput(lsbSpec()); err != nil {
			return out, err
		}
		if out.beb, err = tput(lowsensing.BEB()); err != nil {
			return out, err
		}
		if n <= fullSenseCap {
			out.full = true
			if out.mwu, err = tput(lowsensing.MWU()); err != nil {
				return out, err
			}
			if out.genie, err = tput(lowsensing.GenieAloha()); err != nil {
				return out, err
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	var lsbTputs, bebTputs, xs []float64
	for point, reps := range grouped {
		n := ns[point]
		lsb := repMean(reps, func(r e1rep) float64 { return r.lsb })
		beb := repMean(reps, func(r e1rep) float64 { return r.beb })
		mwuCell, genieCell := "-", "-"
		if reps[0].full {
			mwuCell = f(repMean(reps, func(r e1rep) float64 { return r.mwu }))
			genieCell = f(repMean(reps, func(r e1rep) float64 { return r.genie }))
		}
		t.AddRow(d(n), f(lsb), f(beb), mwuCell, genieCell, f(lsb/beb))
		xs = append(xs, float64(n))
		lsbTputs = append(lsbTputs, lsb)
		bebTputs = append(bebTputs, beb)
	}

	lsbFit := stats.ClassifyGrowth(xs, lsbTputs)
	t.AddNote("LSB throughput growth class: %s (spread %.2f, power exp %.3f) — paper predicts flat",
		lsbFit.Class, lsbFit.RelSpread, lsbFit.PowerExponent)
	decay := bebTputs[0] / bebTputs[len(bebTputs)-1]
	t.AddNote("BEB throughput decays by %.2fx from N=%d to N=%d — paper predicts O(1/ln N) decay",
		decay, ns[0], ns[len(ns)-1])
	return t, nil
}

func runE3(rc RunConfig) (*Table, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	n := pick(rc, int64(256), int64(1024))
	burstJs := []int64{0, n / 2, n, 2 * n, 4 * n}
	randRates := []float64{0.1, 0.25, 0.4}

	t := &Table{
		ID:      "E3",
		Title:   fmt.Sprintf("Throughput under jamming (N=%d batch)", n),
		Claim:   "(T+J)/S = Θ(1) for all J",
		Columns: []string{"jammer", "J", "throughput", "implicit", "delivered", "meanAcc"},
	}

	// Sweep points: the burst intervals first, then the random rates.
	type e3rep struct{ tput, impl, deliv, acc float64 }
	points := len(burstJs) + len(randRates)
	grouped, err := sweep(rc, "E3", points, func(point, _ int, seed uint64) (e3rep, error) {
		sc := lowsensing.Scenario{Arrivals: lowsensing.BatchArrivals(n)}
		var opts []lowsensing.Option
		if point < len(burstJs) {
			j := burstJs[point]
			sc.MaxSlots = capFor(n, j)
			if j > 0 {
				sc.Jammer = lowsensing.BurstJamming(0, j)
			}
		} else {
			rate := randRates[point-len(burstJs)]
			// A rate-ρ unbounded random jammer: packets must finish between
			// jams; budget scales with the cap so the jam level is sustained.
			// The jammer keeps its historical experiment-local seed stream
			// (seed^0xe3, not the jammer spec's derivation), so it is
			// built as an instance and injected with WithJammer.
			jm, err := jamming.NewRandom(rate, 0, seed^0xe3)
			if err != nil {
				return e3rep{}, err
			}
			sc.MaxSlots = capFor(n, 8*n)
			opts = append(opts, lowsensing.WithJammer(jm))
		}
		r, err := run(seed, sc, opts...)
		if err != nil {
			return e3rep{}, err
		}
		return e3rep{
			tput:  r.Throughput(),
			impl:  r.ImplicitThroughput(),
			deliv: float64(r.Completed) / float64(r.Arrived),
			acc:   r.MeanAccesses(),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	var tputs []float64
	for point, reps := range grouped {
		tput := repMean(reps, func(r e3rep) float64 { return r.tput })
		impl := repMean(reps, func(r e3rep) float64 { return r.impl })
		deliv := repMean(reps, func(r e3rep) float64 { return r.deliv })
		acc := repMean(reps, func(r e3rep) float64 { return r.acc })
		if point < len(burstJs) {
			t.AddRow("burst", d(burstJs[point]), f(tput), f(impl), f(deliv), f(acc))
		} else {
			rate := randRates[point-len(burstJs)]
			t.AddRow(fmt.Sprintf("random %.0f%%", rate*100), "-", f(tput), f(impl), f(deliv), f(acc))
		}
		tputs = append(tputs, tput)
	}

	minT, maxT := tputs[0], tputs[0]
	for _, v := range tputs {
		if v < minT {
			minT = v
		}
		if v > maxT {
			maxT = v
		}
	}
	t.AddNote("throughput stays within [%.3f, %.3f] across all jamming levels — paper predicts Θ(1)", minT, maxT)
	return t, nil
}
