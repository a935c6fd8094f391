// Package metrics collects time series and per-run summaries from
// simulations: backlog, implicit throughput, contention, the paper's
// potential function Φ(t), the distribution of active windows, and
// per-packet energy statistics.
package metrics

import (
	"fmt"
	"sort"

	"lowsensing/internal/core"
	"lowsensing/internal/sim"
	"lowsensing/internal/stats"
	"lowsensing/obs"
)

// Sample is one Collector observation. Slot numbers refer to resolved slots
// (slots in which some station accessed the channel); quantities are as of
// the end of that slot.
type Sample struct {
	Slot               int64
	Backlog            int64
	Arrived            int64
	Completed          int64
	Jammed             int64
	ActiveSlots        int64
	ImplicitThroughput float64
	Contention         float64
	Potential          core.Potential // default coefficients; N counts the active windows
	// The active window distribution; all 0 when no window is active.
	WMin, WMedian, WMax float64
}

// Collector samples engine state during a run: counters, contention, the
// potential Φ(t) and the active window distribution, which together are the
// state the paper's analysis tracks (§4.1–4.2). It is an obs.Recorder that
// reads the engine through the sim.EngineBound contract: attach it as (or
// inside) sim.Params.Recorder and Bind it to the engine before the run —
// lowsensing.WithRecorder does both. The zero value samples every resolved
// slot; set Every to thin the series.
type Collector struct {
	// Every is the minimum number of slots between samples (0 or 1 means
	// sample every resolved slot).
	Every int64

	e       *sim.Engine
	samples []Sample
	nextAt  int64
	winBuf  []float64
}

// Bind implements sim.EngineBound: the collector samples e's state.
func (c *Collector) Bind(e *sim.Engine) { c.e = e }

// RecordPacket implements obs.Recorder; packet events are ignored.
func (c *Collector) RecordPacket(obs.PacketEvent) {}

// RecordSlot implements obs.Recorder: it samples the bound engine's state
// as of the end of the resolved slot.
func (c *Collector) RecordSlot(ev obs.SlotEvent) {
	e := c.e
	if e == nil {
		panic("metrics: Collector.RecordSlot before Bind: attach it with lowsensing.WithRecorder, or call Bind(engine) after sim.NewEngine")
	}
	slot := ev.Slot
	if slot < c.nextAt {
		return
	}
	every := c.Every
	if every < 1 {
		every = 1
	}
	c.nextAt = slot + every

	c.winBuf = c.winBuf[:0]
	e.VisitActiveWindows(func(w float64) { c.winBuf = append(c.winBuf, w) })

	s := Sample{
		Slot:               slot,
		Backlog:            e.Backlog(),
		Arrived:            e.Arrived(),
		Completed:          e.Completed(),
		Jammed:             e.JammedSoFar(),
		ActiveSlots:        e.ActiveSlotsSoFar(),
		ImplicitThroughput: e.ImplicitThroughputNow(),
		Contention:         core.Contention(c.winBuf),
		Potential:          core.Measure(c.winBuf, core.DefaultPotentialParams()),
	}
	// Sort only after the sums above have read the windows in arrival
	// order: floating-point addition is not associative, so sorting first
	// would change the bits of C(t) and Φ.
	if n := len(c.winBuf); n > 0 {
		sort.Float64s(c.winBuf)
		s.WMin, s.WMedian, s.WMax = c.winBuf[0], c.winBuf[n/2], c.winBuf[n-1]
	}
	c.samples = append(c.samples, s)
}

// Samples returns the collected series.
func (c *Collector) Samples() []Sample { return c.samples }

// MaxBacklog returns the largest sampled backlog.
func (c *Collector) MaxBacklog() int64 {
	var m int64
	for _, s := range c.samples {
		if s.Backlog > m {
			m = s.Backlog
		}
	}
	return m
}

// MinImplicitThroughput returns the smallest sampled implicit throughput,
// or 1 if nothing was sampled.
func (c *Collector) MinImplicitThroughput() float64 {
	m := 1.0
	for _, s := range c.samples {
		if s.ImplicitThroughput < m {
			m = s.ImplicitThroughput
		}
	}
	return m
}

// Series extracts one named field of the samples as a float64 slice. Valid
// names: "slot", "backlog", "implicit", "contention", "phi", "potN",
// "potH", "potL". It panics on an unknown name (caller bug).
func (c *Collector) Series(name string) []float64 {
	out := make([]float64, len(c.samples))
	for i, s := range c.samples {
		switch name {
		case "slot":
			out[i] = float64(s.Slot)
		case "backlog":
			out[i] = float64(s.Backlog)
		case "implicit":
			out[i] = s.ImplicitThroughput
		case "contention":
			out[i] = s.Contention
		case "phi":
			out[i] = s.Potential.Phi
		case "potN":
			out[i] = s.Potential.N
		case "potH":
			out[i] = s.Potential.H
		case "potL":
			out[i] = s.Potential.L
		default:
			panic(fmt.Sprintf("metrics: unknown series %q", name))
		}
	}
	return out
}

// EnergySummary aggregates per-packet channel-access statistics of a
// completed run.
type EnergySummary struct {
	Sends    stats.Summary
	Listens  stats.Summary
	Accesses stats.Summary
	// Latency summarizes slots-to-success over delivered packets only.
	Latency stats.Summary
	// Undelivered counts packets still in the system at the end.
	Undelivered int
}

// SummarizeEnergy computes per-packet energy and latency statistics from a
// run result. It reads only the run's streaming accumulators
// (Result.Energy), which the engine maintains in constant memory for
// every run. N, Mean, Min and Max are exact; Median, P90
// and P99 come from the accumulators' log-bucketed histograms (exact below
// 16, within 1/8 relative resolution above).
func SummarizeEnergy(r sim.Result) EnergySummary {
	es := r.Energy
	return EnergySummary{
		Sends:       es.Sends.Summary(),
		Listens:     es.Listens.Summary(),
		Accesses:    es.Accesses.Summary(),
		Latency:     es.Latency.Summary(),
		Undelivered: int(es.Undelivered),
	}
}
