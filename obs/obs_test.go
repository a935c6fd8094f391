package obs

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lowsensing/channel"
)

// capture is a minimal recorder that remembers every event it sees.
type capture struct {
	slots   []SlotEvent
	packets []PacketEvent
	flushed int
	flushE  error
}

func (c *capture) RecordSlot(ev SlotEvent)    { c.slots = append(c.slots, ev) }
func (c *capture) RecordPacket(p PacketEvent) { c.packets = append(c.packets, p) }
func (c *capture) Flush() error               { c.flushed++; return c.flushE }

func slot(n int64) SlotEvent { return SlotEvent{Slot: n, Outcome: channel.OutcomeSuccess, Senders: 1} }

func TestGlyph(t *testing.T) {
	cases := []struct {
		ev   SlotEvent
		want byte
	}{
		{SlotEvent{Jammed: true, Outcome: channel.OutcomeSuccess}, '!'},
		{SlotEvent{Outcome: channel.OutcomeSuccess}, 'S'},
		{SlotEvent{Outcome: channel.OutcomeNoisy}, 'x'},
		{SlotEvent{Outcome: channel.OutcomeEmpty}, '.'},
	}
	for _, c := range cases {
		if got := c.ev.Glyph(); got != c.want {
			t.Errorf("Glyph(%+v) = %q, want %q", c.ev, got, c.want)
		}
	}
}

func TestPacketEventDerived(t *testing.T) {
	p := PacketEvent{ID: 1, Arrival: 10, FirstSend: 12, Departure: 30, Sends: 3, Listens: 5}
	if p.Accesses() != 8 {
		t.Errorf("Accesses = %d, want 8", p.Accesses())
	}
	if !p.Delivered() || p.Latency() != 21 {
		t.Errorf("Delivered/Latency = %v/%d, want true/21", p.Delivered(), p.Latency())
	}
	lost := PacketEvent{Arrival: 10, Departure: -1}
	if lost.Delivered() || lost.Latency() != -1 {
		t.Errorf("undelivered: Delivered/Latency = %v/%d, want false/-1", lost.Delivered(), lost.Latency())
	}
}

func TestPacketFunc(t *testing.T) {
	var got []PacketEvent
	r := Recorder(PacketFunc(func(p PacketEvent) { got = append(got, p) }))
	r.RecordSlot(slot(3))
	r.RecordPacket(PacketEvent{ID: 4})
	if len(got) != 1 || got[0].ID != 4 {
		t.Fatalf("PacketFunc forwarded %+v, want packet 4 only", got)
	}
}

func TestMultiCollapse(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of no effective recorders should be nil")
	}
	c := &capture{}
	if Multi(nil, c, nil) != Recorder(c) {
		t.Error("Multi of one effective recorder should be that recorder")
	}
}

func TestMultiFanOutAndFlush(t *testing.T) {
	a, b := &capture{}, &capture{flushE: errors.New("b failed")}
	m := Multi(a, nil, b)
	m.RecordSlot(slot(5))
	m.RecordPacket(PacketEvent{ID: 7})
	if len(a.slots) != 1 || len(b.slots) != 1 || len(a.packets) != 1 || len(b.packets) != 1 {
		t.Fatalf("fan-out incomplete: a=%d/%d b=%d/%d",
			len(a.slots), len(a.packets), len(b.slots), len(b.packets))
	}
	// Flush reaches every constituent even when one errors, and the first
	// error comes back.
	if err := Flush(m); err == nil || err.Error() != "b failed" {
		t.Fatalf("Flush error = %v, want b's error", err)
	}
	if a.flushed != 1 || b.flushed != 1 {
		t.Fatalf("flush counts a=%d b=%d, want 1/1", a.flushed, b.flushed)
	}
	if err := Flush(nil); err != nil {
		t.Fatalf("Flush(nil) = %v", err)
	}
}

// orderedFlush records, into a shared log, the order it was flushed in.
type orderedFlush struct {
	capture
	name string
	log  *[]string
	err  error
}

func (o *orderedFlush) Flush() error { *o.log = append(*o.log, o.name); return o.err }

// TestByChannelRouting: each event reaches exactly the recorder of its
// Channel, in order.
func TestByChannelRouting(t *testing.T) {
	a, b, c := &capture{}, &capture{}, &capture{}
	d := ByChannel(a, b, c)
	for _, ch := range []int{2, 0, 1, 2, 0} {
		ev := slot(int64(10 + ch))
		ev.Channel = ch
		d.RecordSlot(ev)
		d.RecordPacket(PacketEvent{ID: int64(ch), Channel: ch})
	}
	for ch, got := range []*capture{a, b, c} {
		if want := 2 - ch%2; len(got.slots) != want || len(got.packets) != want {
			t.Fatalf("channel %d got %d slots, %d packets; want %d and %d", ch, len(got.slots), len(got.packets), want, want)
		}
		for i := range got.slots {
			if got.slots[i].Channel != ch || got.slots[i].Slot != int64(10+ch) || got.packets[i].ID != int64(ch) {
				t.Fatalf("channel %d got another channel's event: %+v %+v", ch, got.slots[i], got.packets[i])
			}
		}
	}
	recs := []Recorder{a}
	d = ByChannel(recs...)
	recs[0] = c
	d.RecordPacket(PacketEvent{ID: 9})
	if a.packets[len(a.packets)-1].ID != 9 {
		t.Fatal("ByChannel kept the caller's slice; changing it rerouted events")
	}
}

// TestByChannelFlushOrder: Flush flushes every recorder in channel order,
// skipping recorders without Flush, and returns the first error after
// flushing them all.
func TestByChannelFlushOrder(t *testing.T) {
	var log []string
	mk := func(name string, err error) *orderedFlush { return &orderedFlush{name: name, log: &log, err: err} }
	d := ByChannel(mk("ch0", nil), PacketFunc(func(PacketEvent) {}), mk("ch2", errors.New("ch2 failed")),
		mk("ch3", errors.New("ch3 failed")))
	if err := Flush(d); err == nil || err.Error() != "ch2 failed" {
		t.Fatalf("Flush error = %v, want channel 2's", err)
	}
	if got := strings.Join(log, ","); got != "ch0,ch2,ch3" {
		t.Fatalf("flush order %s, want ch0,ch2,ch3", got)
	}
}

// TestByChannelOutOfRange: an event on a channel with no recorder panics
// with an error naming the channel (the cluster executor turns it into
// the run's error; see cluster.TestRecorderSeesChannelLabels).
func TestByChannelOutOfRange(t *testing.T) {
	for _, ch := range []int{2, -1} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("index out of range [%d]", ch)) {
					t.Fatalf("channel %d: panic %v does not name the channel", ch, err)
				}
			}()
			ByChannel(&capture{}, &capture{}).RecordPacket(PacketEvent{Channel: ch})
		}()
	}
}

func TestSlotRange(t *testing.T) {
	c := &capture{}
	r := SlotRange(c, 10, 20)
	for _, s := range []int64{5, 10, 15, 19, 20, 25} {
		r.RecordSlot(slot(s))
	}
	if len(c.slots) != 3 {
		t.Fatalf("got %d slot events, want 3 (10, 15, 19)", len(c.slots))
	}
	// Packet filtering is by lifetime intersection with [from, to).
	cases := []struct {
		p    PacketEvent
		want bool
	}{
		{PacketEvent{ID: 1, Arrival: 0, Departure: 5}, false},   // ended before
		{PacketEvent{ID: 2, Arrival: 0, Departure: 10}, true},   // departs at from
		{PacketEvent{ID: 3, Arrival: 12, Departure: 14}, true},  // inside
		{PacketEvent{ID: 4, Arrival: 19, Departure: 40}, true},  // spans to
		{PacketEvent{ID: 5, Arrival: 20, Departure: 40}, false}, // starts at to
		{PacketEvent{ID: 6, Arrival: 0, Departure: -1}, true},   // never departed
		{PacketEvent{ID: 7, Arrival: 30, Departure: -1}, false},
		// Abandoned packets end at LeftAt, not at the end of the run.
		{PacketEvent{ID: 8, Arrival: 0, Departure: DepartureAbandoned, LeftAt: 5}, false},
		{PacketEvent{ID: 9, Arrival: 0, Departure: DepartureAbandoned, LeftAt: 12}, true},
	}
	for _, tc := range cases {
		before := len(c.packets)
		r.RecordPacket(tc.p)
		if got := len(c.packets) > before; got != tc.want {
			t.Errorf("packet %d (arr %d dep %d): recorded=%v, want %v",
				tc.p.ID, tc.p.Arrival, tc.p.Departure, got, tc.want)
		}
	}
	if SlotRange(nil, 0, 10) != nil {
		t.Error("SlotRange(nil, ...) must stay nil")
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	for i := int64(0); i < 5; i++ {
		r.RecordSlot(slot(i))
	}
	r.RecordPacket(PacketEvent{ID: 100})
	got := r.Slots()
	if len(got) != 3 || got[0].Slot != 2 || got[1].Slot != 3 || got[2].Slot != 4 {
		t.Fatalf("Slots() = %+v, want slots 2,3,4 oldest-first", got)
	}
	if r.DroppedSlots() != 2 || r.DroppedPackets() != 0 || r.Dropped() != 2 {
		t.Fatalf("dropped slot/pkt/total = %d/%d/%d, want 2/0/2",
			r.DroppedSlots(), r.DroppedPackets(), r.Dropped())
	}
	pk := r.Packets()
	if len(pk) != 1 || pk[0].ID != 100 {
		t.Fatalf("Packets() = %+v, want the single recorded packet", pk)
	}
	// Each kind has its own buffer: overflow one without the other.
	for i := int64(0); i < 4; i++ {
		r.RecordPacket(PacketEvent{ID: i})
	}
	if r.DroppedPackets() != 2 {
		t.Fatalf("DroppedPackets = %d, want 2", r.DroppedPackets())
	}
	if pk := r.Packets(); len(pk) != 3 || pk[0].ID != 1 || pk[2].ID != 3 {
		t.Fatalf("Packets() after wrap = %+v, want IDs 1,2,3", pk)
	}
	if small := NewRing(0); small == nil || small.cap != 1 {
		t.Error("NewRing(<1) must clamp capacity to 1")
	}
}
