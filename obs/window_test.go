package obs

import (
	"testing"

	"lowsensing/channel"
)

func TestWindowsClassifyAndRoll(t *testing.T) {
	w := NewWindows(4, nil)
	// Window 0: success, collision, jammed(success), empty.
	w.RecordSlot(SlotEvent{Slot: 0, Outcome: channel.OutcomeSuccess, Backlog: 5})
	w.RecordSlot(SlotEvent{Slot: 1, Outcome: channel.OutcomeNoisy, Backlog: 7})
	w.RecordSlot(SlotEvent{Slot: 2, Outcome: channel.OutcomeSuccess, Jammed: true, Backlog: 6})
	w.RecordSlot(SlotEvent{Slot: 3, Outcome: channel.OutcomeEmpty, Backlog: 4})
	// Crossing into window 2 (skipping window 1 entirely: sparse series).
	w.RecordSlot(SlotEvent{Slot: 9, Outcome: channel.OutcomeSuccess, Backlog: 3})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ws := w.Stats()
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2 (idle window 1 skipped)", len(ws))
	}
	w0 := ws[0]
	if w0.Index != 0 || w0.Start != 0 || w0.End != 4 {
		t.Fatalf("window 0 bounds = %d [%d,%d)", w0.Index, w0.Start, w0.End)
	}
	if w0.Resolved != 4 || w0.Successes != 1 || w0.Collisions != 1 || w0.Jammed != 1 || w0.Empties != 1 {
		t.Fatalf("window 0 classification = %+v", w0)
	}
	if w0.Backlog != 4 || w0.MaxBacklog != 7 {
		t.Fatalf("window 0 backlog/max = %d/%d, want 4/7", w0.Backlog, w0.MaxBacklog)
	}
	if got := w0.Throughput(); got != 0.25 {
		t.Fatalf("Throughput = %v, want 0.25", got)
	}
	if got := w0.JamRate(); got != 0.25 {
		t.Fatalf("JamRate = %v, want 0.25", got)
	}
	if ws[1].Index != 2 || ws[1].Resolved != 1 {
		t.Fatalf("window 1 = %+v, want index 2 with one resolved slot", ws[1])
	}
}

func TestWindowsPacketRoll(t *testing.T) {
	// A departure is the first event of a new window: RecordPacket alone
	// must roll the previous window out.
	var emitted []WindowStat
	w := NewWindows(4, func(ws WindowStat) { emitted = append(emitted, ws) })
	w.RecordSlot(SlotEvent{Slot: 1, Outcome: channel.OutcomeSuccess})
	w.RecordPacket(PacketEvent{ID: 1, Arrival: 0, Departure: 6, Sends: 2, Listens: 3})
	if len(emitted) != 1 || emitted[0].Index != 0 {
		t.Fatalf("departure at slot 6 must close window 0, emitted %+v", emitted)
	}
	// Undelivered packets have no departure window and are skipped.
	w.RecordPacket(PacketEvent{ID: 2, Arrival: 0, Departure: -1})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 2 {
		t.Fatalf("Flush must emit the final partial window, got %d windows", len(emitted))
	}
	w1 := emitted[1]
	if w1.Departures != 1 || w1.Accesses.Count != 1 || w1.Accesses.Sum != 5 || w1.Latency.Sum != 7 {
		t.Fatalf("window 1 departure stats = %+v", w1)
	}
	// Flush is idempotent.
	if err := w.Flush(); err != nil || len(emitted) != 2 {
		t.Fatalf("second Flush re-emitted: err=%v windows=%d", err, len(emitted))
	}
}

func TestWindowsAbandonPlacement(t *testing.T) {
	// A churn abandon is placed by its leave slot, not its (absent)
	// departure — and, like a departure, it can be the first event of a new
	// window.
	var emitted []WindowStat
	w := NewWindows(4, func(ws WindowStat) { emitted = append(emitted, ws) })
	w.RecordSlot(SlotEvent{Slot: 0, Outcome: channel.OutcomeSuccess})
	w.RecordPacket(PacketEvent{ID: 1, Arrival: 0, Departure: DepartureAbandoned, LeftAt: 5, Sends: 1})
	if len(emitted) != 1 || emitted[0].Index != 0 || emitted[0].Abandons != 0 {
		t.Fatalf("abandon at slot 5 must close window 0 without counting into it, emitted %+v", emitted)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w1 := emitted[1]
	if w1.Index != 1 || w1.Abandons != 1 || w1.Departures != 0 {
		t.Fatalf("window 1 = %+v, want one abandon and no departures", w1)
	}
	// Abandons never feed the access/latency tallies: the lifecycle is open.
	if w1.Accesses.Count != 0 || w1.Latency.Count != 0 {
		t.Fatalf("abandon leaked into tallies: %+v", w1)
	}
}

func TestWindowsDefaultSize(t *testing.T) {
	if got := NewWindows(0, nil).Size(); got != DefaultWindow {
		t.Fatalf("Size() = %d, want DefaultWindow %d", got, DefaultWindow)
	}
	if got := NewWindows(256, nil).Size(); got != 256 {
		t.Fatalf("Size() = %d, want 256", got)
	}
}
