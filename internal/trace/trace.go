// Package trace records per-slot channel events and renders them as ASCII
// timelines, for debugging runs and for the lsbtrace tool (experiment E9:
// direct visualization of the Figure-1 algorithm's behaviour).
package trace

import (
	"fmt"
	"strings"

	"lowsensing/obs"
)

// Event is one resolved slot — an alias of the observability layer's
// slot-event type, so the ASCII tracer and the structured obs recorders
// share a single representation that cannot drift. The timeline glyph
// classification ('!', 'S', 'x', '.') lives on obs.SlotEvent.Glyph.
type Event = obs.SlotEvent

// Tracer records resolved slots. Limit bounds memory (0 means
// DefaultLimit); once full, further events are dropped and the Dropped
// counter grows. It is an obs.Recorder: attach it with
// lowsensing.WithRecorder or as (or inside) sim.Params.Recorder.
type Tracer struct {
	Limit   int
	events  []Event
	dropped int64
}

// DefaultLimit is the event cap applied when Tracer.Limit is zero.
const DefaultLimit = 1 << 20

// RecordSlot implements obs.Recorder.
func (tr *Tracer) RecordSlot(ev Event) {
	limit := tr.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	if len(tr.events) >= limit {
		tr.dropped++
		return
	}
	tr.events = append(tr.events, ev)
}

// RecordPacket implements obs.Recorder; the ASCII timeline renders slots
// only, so packet events are ignored.
func (tr *Tracer) RecordPacket(obs.PacketEvent) {}

// Events returns the recorded events in slot order.
func (tr *Tracer) Events() []Event { return tr.events }

// Dropped returns how many events were discarded after the limit was hit.
func (tr *Tracer) Dropped() int64 { return tr.dropped }

// Timeline renders the recorded events as a compact ASCII strip. Runs of
// slots with no channel access are rendered as "(+n)". Width limits the
// line length (0 means 80); lines wrap.
func (tr *Tracer) Timeline(width int) string {
	if width <= 0 {
		width = 80
	}
	var b strings.Builder
	col := 0
	emit := func(s string) {
		if col+len(s) > width {
			b.WriteByte('\n')
			col = 0
		}
		b.WriteString(s)
		col += len(s)
	}
	prev := int64(-1)
	for _, ev := range tr.events {
		if prev >= 0 && ev.Slot > prev+1 {
			emit(fmt.Sprintf("(+%d)", ev.Slot-prev-1))
		}
		emit(string(ev.Glyph()))
		prev = ev.Slot
	}
	if tr.dropped > 0 {
		emit(fmt.Sprintf("[+%d dropped]", tr.dropped))
	}
	return b.String()
}

// Table renders the recorded events one per line with full detail.
func (tr *Tracer) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s  %-8s %4s %5s %7s %4s\n", "slot", "outcome", "jam", "send", "access", "bklg")
	for _, ev := range tr.events {
		jam := ""
		if ev.Jammed {
			jam = "jam"
		}
		fmt.Fprintf(&b, "%10d  %-8s %4s %5d %7d %4d\n",
			ev.Slot, ev.Outcome, jam, ev.Senders, ev.Accessors, ev.Backlog)
	}
	if tr.dropped > 0 {
		fmt.Fprintf(&b, "... %d events dropped after limit\n", tr.dropped)
	}
	return b.String()
}

// CountOutcomes tallies the recorded events by glyph category and returns
// (successes, collisions, heardEmpty, jammed).
func (tr *Tracer) CountOutcomes() (successes, collisions, empty, jammed int) {
	for _, ev := range tr.events {
		switch ev.Glyph() {
		case 'S':
			successes++
		case 'x':
			collisions++
		case '.':
			empty++
		case '!':
			jammed++
		}
	}
	return successes, collisions, empty, jammed
}
