package harness

import (
	"fmt"

	"lowsensing"
	"lowsensing/internal/stats"
	"lowsensing/obs"
)

func init() {
	register(Experiment{
		ID:    "E10",
		Title: "Fairness of LOW-SENSING BACKOFF",
		Claim: "§6 (open problem): LSB is NOT guaranteed fair — some packets linger far longer than others; we quantify the gap against baselines",
		Run:   runE10,
	})
}

func runE10(rc RunConfig) (*Table, error) {
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
		{"MWU", lowsensing.MWU()},
		{"Genie", lowsensing.GenieAloha()},
	}

	t := &Table{
		ID:    "E10",
		Title: fmt.Sprintf("Latency fairness (N=%d batch)", n),
		Claim: "Jain index of per-packet latency; the paper predicts LSB trades fairness for energy",
		Columns: []string{
			"protocol", "jainLatency", "jainAccesses", "latP50", "latP99", "latMax/lat50",
		},
	}

	type e10rep struct {
		jainLat, jainAcc, p50, p99, ratio float64
	}
	grouped, err := sweep(rc, "E10", len(rows), func(point, _ int, seed uint64) (e10rep, error) {
		// Per-packet latencies and accesses stream out through a sink; the
		// engine retains nothing.
		lats := make([]float64, 0, n)
		accs := make([]float64, 0, n)
		recordLat := latencySink(&lats)
		_, err := run(seed, lowsensing.Scenario{
			Arrivals: lowsensing.BatchArrivals(n),
			Protocol: rows[point].proto,
			MaxSlots: capFor(n, 0),
		}, lowsensing.WithRecorder(obs.PacketFunc(func(p obs.PacketEvent) {
			recordLat(p)
			accs = append(accs, float64(p.Accesses()))
		})))
		if err != nil {
			return e10rep{}, err
		}
		s := stats.Summarize(lats)
		out := e10rep{
			jainLat: stats.Jain(lats),
			jainAcc: stats.Jain(accs),
			p50:     s.Median,
			p99:     s.P99,
		}
		if s.Median > 0 {
			out.ratio = s.Max / s.Median
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	var lsbJain, genieJain float64
	for point, reps := range grouped {
		jainLat := repMean(reps, func(r e10rep) float64 { return r.jainLat })
		t.AddRow(rows[point].name,
			f(jainLat),
			f(repMean(reps, func(r e10rep) float64 { return r.jainAcc })),
			f(repMean(reps, func(r e10rep) float64 { return r.p50 })),
			f(repMean(reps, func(r e10rep) float64 { return r.p99 })),
			f(repMean(reps, func(r e10rep) float64 { return r.ratio })))
		switch rows[point].name {
		case "LSB":
			lsbJain = jainLat
		case "Genie":
			genieJain = jainLat
		}
	}
	t.AddNote("lower Jain index = less fair; LSB %.3f vs genie %.3f — the gap is the §6 open problem, not a bug", lsbJain, genieJain)
	t.AddNote("latency here includes queueing in a batch, so even a perfectly fair FIFO would score below 1")
	return t, nil
}
