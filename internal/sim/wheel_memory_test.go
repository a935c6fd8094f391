package sim

import (
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/obs"
)

// drainProbe samples the wheel's packed-drain capacity after every
// resolved slot: the drain starts on the engine's pooled block, whose
// reference the engine drops when the run ends, so its high-water mark is
// visible only while the run is live.
type drainProbe struct {
	e   *Engine
	max int
}

func (d *drainProbe) RecordSlot(obs.SlotEvent)     { d.max = max(d.max, cap(d.e.events.drainKeys)) }
func (d *drainProbe) RecordPacket(obs.PacketEvent) {}

// TestWheelMemoryIsBacklogBounded runs the pathological fan-in workload —
// a large batch whose packets all schedule within the initial 16-slot
// window — and checks the wheel's retained storage stays proportional to
// the peak backlog (nodes, the drain and the radix scratch), not to the
// sum of bucket high-water marks the per-bucket-slice design would retain.
// The fixed-size block — bucket headers and the drain's starting array —
// is not part of that storage: the engine hands it back to the pool when
// the run ends.
func TestWheelMemoryIsBacklogBounded(t *testing.T) {
	const n = 20000
	probe := &drainProbe{}
	e, err := NewEngine(Params{
		Seed:          1,
		Arrivals:      arrivals.NewBatch(n),
		NewStation:    core.MustFactory(core.Default()),
		ReuseStations: true,
		Recorder:      probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe.e = e
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	w := &e.events
	if got := len(w.nodes); got > n {
		t.Fatalf("wheel holds %d nodes, want <= peak backlog %d", got, n)
	}
	for name, c := range map[string]int{
		"packed drain": probe.max,
		"struct drain": cap(w.drain),
		"key scratch":  cap(w.keyBuf),
	} {
		if c > n {
			t.Fatalf("%s capacity %d exceeds peak backlog %d", name, c, n)
		}
	}
	if probe.max < n/100 {
		t.Fatalf("packed drain capacity %d: the fan-in never filled the drain", probe.max)
	}
	if e.block != nil || w.wheelHeads != nil || w.drainKeys != nil {
		t.Fatal("the finished engine still holds its fixed-size block")
	}
	t.Logf("nodes %d, drain cap %d/%d, scratch cap %d",
		len(w.nodes), probe.max, cap(w.drain), cap(w.keyBuf))
}
