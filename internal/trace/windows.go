package trace

import (
	"fmt"
	"sort"
	"strings"

	"lowsensing/internal/sim"
	"lowsensing/obs"
)

// WindowSample records the distribution of active window sizes at one
// resolved slot.
type WindowSample struct {
	Slot    int64
	Count   int
	WMax    float64
	WMedian float64
	WMin    float64
}

// WindowTracker samples the active stations' backoff windows during a run.
// It is an obs.Recorder that reads the engine through the sim.EngineBound
// contract: attach it as (or inside) sim.Params.Recorder and Bind it to the
// engine before the run. Every is the minimum slot spacing between samples
// (0 or 1 samples every resolved slot). The window distribution is what the
// paper's potential function and interval analysis track, so this is the
// instrument for watching Figure 1's state evolve.
type WindowTracker struct {
	Every int64

	e       *sim.Engine
	samples []WindowSample
	nextAt  int64
	buf     []float64
}

// Bind implements sim.EngineBound: the tracker samples e's windows.
func (w *WindowTracker) Bind(e *sim.Engine) { w.e = e }

// RecordPacket implements obs.Recorder; packet events are ignored.
func (w *WindowTracker) RecordPacket(obs.PacketEvent) {}

// RecordSlot implements obs.Recorder: it samples the bound engine's active
// windows as of the end of the resolved slot.
func (w *WindowTracker) RecordSlot(ev obs.SlotEvent) {
	e := w.e
	if e == nil {
		panic("trace: WindowTracker.RecordSlot before Bind: call Bind(engine) after sim.NewEngine")
	}
	slot := ev.Slot
	if slot < w.nextAt {
		return
	}
	every := w.Every
	if every < 1 {
		every = 1
	}
	w.nextAt = slot + every

	w.buf = w.buf[:0]
	e.VisitActiveWindows(func(win float64) { w.buf = append(w.buf, win) })
	s := WindowSample{Slot: slot, Count: len(w.buf)}
	if len(w.buf) > 0 {
		sort.Float64s(w.buf)
		s.WMin = w.buf[0]
		s.WMax = w.buf[len(w.buf)-1]
		s.WMedian = w.buf[len(w.buf)/2]
	}
	w.samples = append(w.samples, s)
}

// Samples returns the recorded series.
func (w *WindowTracker) Samples() []WindowSample { return w.samples }

// Series extracts one field ("wmax", "wmedian", "wmin", "count", "slot")
// as a float slice; it panics on an unknown name.
func (w *WindowTracker) Series(name string) []float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		switch name {
		case "wmax":
			out[i] = s.WMax
		case "wmedian":
			out[i] = s.WMedian
		case "wmin":
			out[i] = s.WMin
		case "count":
			out[i] = float64(s.Count)
		case "slot":
			out[i] = float64(s.Slot)
		default:
			panic(fmt.Sprintf("trace: unknown window series %q", name))
		}
	}
	return out
}

// Table renders the sampled window distribution, thinned to at most rows
// lines (0 means all).
func (w *WindowTracker) Table(rows int) string {
	samples := w.samples
	if rows > 0 && len(samples) > rows {
		thinned := make([]WindowSample, 0, rows)
		for i := 0; i < rows; i++ {
			thinned = append(thinned, samples[i*(len(samples)-1)/(rows-1)])
		}
		samples = thinned
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %8s %10s %10s %10s\n", "slot", "active", "w_min", "w_median", "w_max")
	for _, s := range samples {
		fmt.Fprintf(&b, "%10d %8d %10.1f %10.1f %10.1f\n", s.Slot, s.Count, s.WMin, s.WMedian, s.WMax)
	}
	return b.String()
}
