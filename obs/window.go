package obs

import (
	"sort"

	"lowsensing/internal/stats"
)

// DefaultWindow is the window size (in slots) used when Windows is
// constructed with size <= 0.
const DefaultWindow = 1024

// WindowStat is the accumulated statistics of one window of consecutive
// slots [Start, End). Only windows containing at least one resolved slot
// or departure are emitted, so the series is sparse over idle stretches.
//
// Slot counters classify resolved slots the way the ASCII timeline does:
// Jammed counts jammed slots, Successes unjammed single-sender slots,
// Collisions unjammed noisy slots, Empties unjammed no-sender slots.
// Backlog is the system backlog after the window's last resolved slot;
// MaxBacklog is the high-water mark within the window. Departures counts
// packets delivered in the window; their energy (channel accesses) and
// latency stream into the Accesses and Latency tallies, giving exact
// means and log-histogram quantiles in O(1) memory per window.
type WindowStat struct {
	Index      int64 // window number: Start = Index * size
	Start, End int64 // half-open slot range covered
	Resolved   int64 // slots actually resolved within the window
	Successes  int64
	Collisions int64
	Empties    int64
	Jammed     int64
	Departures int64
	// Abandons counts packets that left through population churn in the
	// window (placed by their leave slot).
	Abandons   int64
	Backlog    int64
	MaxBacklog int64
	Accesses   stats.Tally // per departed packet: sends + listens
	Latency    stats.Tally // per departed packet: PacketEvent.Latency
}

// Throughput returns successes per resolved slot in the window (0 if no
// slot resolved).
func (w WindowStat) Throughput() float64 {
	if w.Resolved == 0 {
		return 0
	}
	return float64(w.Successes) / float64(w.Resolved)
}

// JamRate returns the fraction of the window's resolved slots that were
// jammed (0 if no slot resolved).
func (w WindowStat) JamRate() float64 {
	if w.Resolved == 0 {
		return 0
	}
	return float64(w.Jammed) / float64(w.Resolved)
}

// Merge folds another WindowStat covering the same slot range into w:
// slot and departure counters sum, the Accesses and Latency tallies merge.
// Backlog and MaxBacklog sum too — merged series come from independent
// channels (a cluster roll-up), so the merged Backlog is the cluster-wide
// backlog at window end, and MaxBacklog the sum of per-channel highs (an
// upper bound on the cluster's true high-water mark, whose per-slot value
// no per-channel series retains).
func (w *WindowStat) Merge(o WindowStat) {
	w.Resolved += o.Resolved
	w.Successes += o.Successes
	w.Collisions += o.Collisions
	w.Empties += o.Empties
	w.Jammed += o.Jammed
	w.Departures += o.Departures
	w.Abandons += o.Abandons
	w.Backlog += o.Backlog
	w.MaxBacklog += o.MaxBacklog
	w.Accesses.Merge(&o.Accesses)
	w.Latency.Merge(&o.Latency)
}

// MergeWindowSeries merges per-channel window series into one cluster-wide
// series: windows with the same Index are folded together (WindowStat.
// Merge), and the result is sorted by Index. Every input series must come
// from accumulators with the same window size — indices are trusted, not
// re-derived — and each stays sparse: a window absent everywhere is absent
// from the merge.
func MergeWindowSeries(series ...[]WindowStat) []WindowStat {
	byIndex := make(map[int64]WindowStat)
	for _, s := range series {
		for _, ws := range s {
			if cur, ok := byIndex[ws.Index]; ok {
				cur.Merge(ws)
				byIndex[ws.Index] = cur
			} else {
				byIndex[ws.Index] = ws
			}
		}
	}
	out := make([]WindowStat, 0, len(byIndex))
	for _, ws := range byIndex {
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Windows folds the event stream into a per-window time-series: a
// streaming accumulator holding exactly one open WindowStat, emitted when
// the stream crosses into a later window (and on Flush for the final
// partial window). Memory is O(1) per window — two Tallys and a handful
// of counters — regardless of run length.
//
// With a non-nil emit callback each completed window is handed over as it
// closes (pair with NDJSON.RecordWindow or CSV.RecordWindow to stream the
// series to disk); with a nil callback completed windows are collected in
// memory and returned by Stats.
type Windows struct {
	size      int64
	emit      func(WindowStat)
	cur       WindowStat
	open      bool
	collected []WindowStat
}

// NewWindows returns a windowed accumulator with the given window size in
// slots (size <= 0 means DefaultWindow). A non-nil emit receives each
// window as it completes; nil collects windows for Stats.
func NewWindows(size int64, emit func(WindowStat)) *Windows {
	if size <= 0 {
		size = DefaultWindow
	}
	return &Windows{size: size, emit: emit}
}

// roll ensures the window containing slot is open, emitting the previous
// window if the stream crossed a boundary.
func (w *Windows) roll(slot int64) {
	idx := slot / w.size
	if w.open && w.cur.Index == idx {
		return
	}
	if w.open {
		w.close()
	}
	w.cur = WindowStat{Index: idx, Start: idx * w.size, End: (idx + 1) * w.size}
	w.open = true
}

func (w *Windows) close() {
	if w.emit != nil {
		w.emit(w.cur)
	} else {
		w.collected = append(w.collected, w.cur)
	}
	w.open = false
}

// RecordSlot implements Recorder.
func (w *Windows) RecordSlot(ev SlotEvent) {
	w.roll(ev.Slot)
	c := &w.cur
	c.Resolved++
	switch ev.Glyph() {
	case '!':
		c.Jammed++
	case 'S':
		c.Successes++
	case 'x':
		c.Collisions++
	default:
		c.Empties++
	}
	c.Backlog = ev.Backlog
	if ev.Backlog > c.MaxBacklog {
		c.MaxBacklog = ev.Backlog
	}
}

// RecordPacket implements Recorder. Churn-abandoned packets count into
// the Abandons of their leave slot's window; end-of-run survivors
// (Departure == -1) have no departure window and are skipped.
func (w *Windows) RecordPacket(p PacketEvent) {
	if p.Abandoned() {
		w.roll(p.LeftAt)
		w.cur.Abandons++
		return
	}
	if p.Departure < 0 {
		return
	}
	// A departure at slot t is observed before t's slot event, so the roll
	// happens here too when t starts a new window.
	w.roll(p.Departure)
	w.cur.Departures++
	w.cur.Accesses.Add(p.Accesses())
	w.cur.Latency.Add(p.Latency())
}

// Flush emits the final partial window, if any. Implements Flusher; safe
// to call multiple times.
func (w *Windows) Flush() error {
	if w.open {
		w.close()
	}
	return nil
}

// Stats returns the windows collected so far (only populated when the
// accumulator was built with a nil emit callback). Call Flush first to
// include the final partial window.
func (w *Windows) Stats() []WindowStat { return w.collected }

// Size returns the window size in slots.
func (w *Windows) Size() int64 { return w.size }
