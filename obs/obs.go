// Package obs is the run-time observability layer of the lowsensing
// module: one instrumentation surface every layer reports through.
//
// The central contract is Recorder, a consumer of typed events emitted by
// the simulation engine as a run unfolds: a SlotEvent after every resolved
// slot and a PacketEvent when a packet's lifecycle closes. It is the
// engine's only observation hook, and attaching one never changes how a
// run executes. Attach a recorder to a run with lowsensing.WithRecorder (or
// Sweep.Observe for every job of a sweep); the engine with no recorder
// attached pays one predictable branch per slot and stays
// allocation-free.
//
// Recorders compose. Multi fans events out to several recorders, ByChannel
// splits a cluster's channel-labeled stream into one per channel,
// SlotRange restricts the stream to a slot interval, Ring keeps a bounded
// in-memory tail with an explicit Dropped counter, PacketFunc adapts a
// per-packet closure, Windows folds the stream into a windowed
// time-series, and NDJSON / CSV serialize events to an io.Writer.
// Anything implementing the two-method Recorder interface slots into the
// same pipeline.
package obs

import "lowsensing/channel"

// SlotEvent describes one resolved slot: a slot in which at least one
// station accessed the channel (idle slots are not resolved and produce no
// event). Backlog is the number of packets in the system after the slot
// resolved. Channel is the cluster channel the slot belongs to, 0 on a
// single-channel run.
type SlotEvent struct {
	Slot      int64
	Outcome   channel.Outcome
	Jammed    bool
	Senders   int
	Accessors int
	Backlog   int64
	Channel   int
}

// Glyph returns the single-character ASCII classification of the slot used
// by timeline renderers: '!' jammed, 'S' success, 'x' noisy (collision),
// '.' empty.
func (ev SlotEvent) Glyph() byte {
	switch {
	case ev.Jammed:
		return '!'
	case ev.Outcome == channel.OutcomeSuccess:
		return 'S'
	case ev.Outcome == channel.OutcomeNoisy:
		return 'x'
	default:
		return '.'
	}
}

// DepartureAbandoned is the Departure sentinel of a packet that left the
// system through population churn before being delivered (the engine's
// sim.DepartureAbandoned is this constant); the abandon slot itself is
// carried in LeftAt.
const DepartureAbandoned = int64(-2)

// PacketEvent describes one packet's closed lifecycle; it is the engine's
// only per-packet record (sim.PacketStats is this type). ID is the
// packet's arrival index on its channel, which Channel names (0 on a
// single-channel run). Delivered packets are emitted at departure, in
// departure order; packets abandoning through churn are emitted at their
// leave slot with Departure = DepartureAbandoned and LeftAt set; packets
// still in the system when the run ends are emitted once at the end, in
// arrival order, with Departure = -1. FirstSend is the slot of the
// packet's first transmission, or -1 if it never sent. Energy in the
// paper's sense is Sends + Listens: each slot in which the packet accessed
// the channel costs one unit.
type PacketEvent struct {
	ID        int64
	Arrival   int64
	FirstSend int64
	Departure int64
	// LeftAt is the slot an abandoned packet left the system, -1 for
	// delivered packets and end-of-run survivors.
	LeftAt  int64
	Sends   int64
	Listens int64
	Channel int
}

// Accesses returns the packet's total channel accesses — its energy cost.
func (p PacketEvent) Accesses() int64 { return p.Sends + p.Listens }

// Delivered reports whether the packet departed before the run ended.
func (p PacketEvent) Delivered() bool { return p.Departure >= 0 }

// Abandoned reports whether the packet left undelivered through population
// churn (as opposed to surviving to the end of the run).
func (p PacketEvent) Abandoned() bool { return p.Departure == DepartureAbandoned }

// Latency returns the number of slots from arrival to success inclusive
// (Departure - Arrival + 1) for a delivered packet and -1 otherwise.
func (p PacketEvent) Latency() int64 {
	if p.Departure < 0 {
		return -1
	}
	return p.Departure - p.Arrival + 1
}

// Recorder consumes the engine's event stream. Events arrive in
// nondecreasing slot order; the PacketEvents of packets departing at slot
// t arrive immediately before the SlotEvent for t. Implementations are
// driven from the engine's hot loop: they need not be goroutine-safe (one
// engine drives one recorder), but they should avoid per-event
// allocation.
type Recorder interface {
	RecordSlot(SlotEvent)
	RecordPacket(PacketEvent)
}

// PacketFunc adapts a per-packet callback to a Recorder that ignores slot
// events — the way to stream every packet's closed record out of a run
// without retaining anything.
type PacketFunc func(PacketEvent)

// RecordSlot implements Recorder; slot events are ignored.
func (PacketFunc) RecordSlot(SlotEvent) {}

// RecordPacket implements Recorder by calling f.
func (f PacketFunc) RecordPacket(p PacketEvent) { f(p) }

// Flusher is optionally implemented by recorders holding buffered or
// partial state (sinks, Windows). Flush is called by the surface layer
// when a run ends; see the package-level Flush helper.
type Flusher interface {
	Flush() error
}

// Flush flushes r if it (or, for composites, any constituent) implements
// Flusher, returning the first error. A nil r is a no-op.
func Flush(r Recorder) error {
	if r == nil {
		return nil
	}
	if f, ok := r.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// multi fans every event out to each recorder in order.
type multi []Recorder

// Multi returns a recorder that forwards every event to each of recs in
// order. Nil entries are skipped; zero or one effective recorders
// collapse to nil or the recorder itself.
func Multi(recs ...Recorder) Recorder {
	m := make(multi, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			m = append(m, r)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}

func (m multi) RecordSlot(ev SlotEvent) {
	for _, r := range m {
		r.RecordSlot(ev)
	}
}

func (m multi) RecordPacket(p PacketEvent) {
	for _, r := range m {
		r.RecordPacket(p)
	}
}

// Flush flushes every constituent that implements Flusher and returns the
// first error (all constituents are flushed regardless).
func (m multi) Flush() error {
	var first error
	for _, r := range m {
		if err := Flush(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// byChannel hands each event to the recorder of its channel.
type byChannel []Recorder

// ByChannel returns a recorder that demultiplexes a cluster's labeled
// stream: recs[ch] sees exactly channel ch's events, in order. An event on
// a channel with no recorder panics (index out of range); a cluster run
// turns that panic into its error. Flush flushes the recorders in channel
// order and returns the first error.
func ByChannel(recs ...Recorder) Recorder { return byChannel(append([]Recorder(nil), recs...)) }

func (b byChannel) RecordSlot(ev SlotEvent)    { b[ev.Channel].RecordSlot(ev) }
func (b byChannel) RecordPacket(p PacketEvent) { b[p.Channel].RecordPacket(p) }

// Flush flushes every recorder in channel order, as multi does.
func (b byChannel) Flush() error { return multi(b).Flush() }

// slotRange restricts events to a half-open slot interval.
type slotRange struct {
	r        Recorder
	from, to int64
}

// SlotRange restricts the wrapped recorder to the half-open slot interval
// [from, to): slot events with from <= Slot < to, and packet events whose
// lifetime intersects the interval (arrived before to, and departed or
// abandoned at or after from, or still in the system at the end).
func SlotRange(r Recorder, from, to int64) Recorder {
	if r == nil {
		return nil
	}
	return &slotRange{r: r, from: from, to: to}
}

func (s *slotRange) RecordSlot(ev SlotEvent) {
	if ev.Slot >= s.from && ev.Slot < s.to {
		s.r.RecordSlot(ev)
	}
}

func (s *slotRange) RecordPacket(p PacketEvent) {
	end := p.Departure
	if p.Abandoned() {
		end = p.LeftAt
	}
	if p.Arrival < s.to && (end < 0 || end >= s.from) {
		s.r.RecordPacket(p)
	}
}

// Flush forwards to the wrapped recorder.
func (s *slotRange) Flush() error { return Flush(s.r) }

// Ring is a bounded in-memory recorder keeping the most recent events of
// each kind. When a buffer is full the oldest event is overwritten and the
// Dropped counter advances — drops are explicit, never silent. The zero
// value is not usable; construct with NewRing.
type Ring struct {
	slots       []SlotEvent
	packets     []PacketEvent
	cap         int
	slotStart   int
	pktStart    int
	droppedSlot int64
	droppedPkt  int64
}

// NewRing returns a ring recorder retaining up to n events of each kind
// (n < 1 is treated as 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{cap: n}
}

// RecordSlot implements Recorder.
func (r *Ring) RecordSlot(ev SlotEvent) {
	if len(r.slots) < r.cap {
		r.slots = append(r.slots, ev)
		return
	}
	r.slots[r.slotStart] = ev
	r.slotStart = (r.slotStart + 1) % r.cap
	r.droppedSlot++
}

// RecordPacket implements Recorder.
func (r *Ring) RecordPacket(p PacketEvent) {
	if len(r.packets) < r.cap {
		r.packets = append(r.packets, p)
		return
	}
	r.packets[r.pktStart] = p
	r.pktStart = (r.pktStart + 1) % r.cap
	r.droppedPkt++
}

// Slots returns the retained slot events, oldest first.
func (r *Ring) Slots() []SlotEvent {
	out := make([]SlotEvent, 0, len(r.slots))
	out = append(out, r.slots[r.slotStart:]...)
	out = append(out, r.slots[:r.slotStart]...)
	return out
}

// Packets returns the retained packet events, oldest first.
func (r *Ring) Packets() []PacketEvent {
	out := make([]PacketEvent, 0, len(r.packets))
	out = append(out, r.packets[r.pktStart:]...)
	out = append(out, r.packets[:r.pktStart]...)
	return out
}

// Dropped returns the total number of events (of either kind) overwritten
// before being read.
func (r *Ring) Dropped() int64 { return r.droppedSlot + r.droppedPkt }

// DroppedSlots returns the number of slot events overwritten.
func (r *Ring) DroppedSlots() int64 { return r.droppedSlot }

// DroppedPackets returns the number of packet events overwritten.
func (r *Ring) DroppedPackets() int64 { return r.droppedPkt }
