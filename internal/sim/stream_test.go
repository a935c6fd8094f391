package sim

import (
	"math"
	"testing"

	"lowsensing/internal/stats"
	"lowsensing/obs"
	"lowsensing/prng"
)

// packetTable is a test recorder keeping every packet's closed record,
// indexed by packet id — retention built on the Recorder stream.
type packetTable []PacketStats

func (pt *packetTable) RecordSlot(obs.SlotEvent) {}

func (pt *packetTable) RecordPacket(p PacketStats) {
	for int64(len(*pt)) <= p.ID {
		*pt = append(*pt, PacketStats{})
	}
	(*pt)[p.ID] = p
}

// TestPacketsOptIn: the engine keeps only the streaming accumulators and
// never fills Result.Packets; per-packet records come from the recorder,
// and observing a run changes none of its accumulators.
func TestPacketsOptIn(t *testing.T) {
	run := func(rec obs.Recorder) Result {
		e, err := NewEngine(Params{
			Seed:       1,
			Arrivals:   &batchSource{count: 8},
			NewStation: func(int64, *prng.Source) Station { return chaosStation{} },
			MaxSlots:   5000,
			Recorder:   rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	def := run(nil)
	if def.Packets != nil {
		t.Fatalf("default run retained %d packets", len(def.Packets))
	}
	if def.Energy.Packets() != def.Arrived {
		t.Fatalf("accumulator covers %d packets, arrived %d", def.Energy.Packets(), def.Arrived)
	}
	if def.MeanAccesses() <= 0 || def.MaxAccesses() <= 0 {
		t.Fatalf("accesses from accumulators: mean %v max %d", def.MeanAccesses(), def.MaxAccesses())
	}

	pt := &packetTable{}
	ret := run(pt)
	if ret.Packets != nil || int64(len(*pt)) != ret.Arrived {
		t.Fatalf("recorder kept %d packets (Result.Packets %d), arrived %d", len(*pt), len(ret.Packets), ret.Arrived)
	}
	// Same seed: the two modes must agree on everything observable.
	if def.Energy != ret.Energy {
		t.Fatal("accumulators differ between retain modes")
	}
	if def.MeanAccesses() != ret.MeanAccesses() || def.MaxAccesses() != ret.MaxAccesses() {
		t.Fatal("access stats differ between retain modes")
	}
}

// TestEnergyAccumulatorMatchesRetained rebuilds the accumulators from the
// recorded per-packet records and checks they agree with what the engine
// streamed (bit-exact for the integer fields and histograms; SumSq within
// float tolerance because the engine accumulates in departure order).
func TestEnergyAccumulatorMatchesRetained(t *testing.T) {
	pt := &packetTable{}
	e, err := NewEngine(Params{
		Seed:       7,
		Arrivals:   &traceSource{batches: [][2]int64{{0, 20}, {40, 10}, {41, 5}}},
		NewStation: func(int64, *prng.Source) Station { return chaosStation{} },
		Jammer:     chaosJammer{seed: 7},
		MaxSlots:   1500,
		Recorder:   pt,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want EnergyStats
	for _, p := range *pt {
		want.AddPacket(p)
	}
	if r.Energy.Undelivered != want.Undelivered {
		t.Fatalf("undelivered %d vs %d", r.Energy.Undelivered, want.Undelivered)
	}
	names := []string{"sends", "listens", "accesses", "latency"}
	got := []*stats.Tally{&r.Energy.Sends, &r.Energy.Listens, &r.Energy.Accesses, &r.Energy.Latency}
	exp := []*stats.Tally{&want.Sends, &want.Listens, &want.Accesses, &want.Latency}
	for i := range got {
		g, w := got[i], exp[i]
		if g.Count != w.Count || g.Sum != w.Sum || g.MinV != w.MinV || g.MaxV != w.MaxV {
			t.Fatalf("%s: integer moments differ: %+v vs %+v", names[i], g, w)
		}
		if math.Abs(g.SumSq-w.SumSq) > 1e-6*(1+math.Abs(w.SumSq)) {
			t.Fatalf("%s: SumSq %v vs %v", names[i], g.SumSq, w.SumSq)
		}
		if g.Hist != w.Hist {
			t.Fatalf("%s: histograms differ between streamed and rebuilt accumulators", names[i])
		}
	}
}

// TestPacketSinkStreams checks the packet-stream contract an obs.PacketFunc
// sink sees: every packet exactly once, delivered packets in departure
// order, undelivered packets flushed in arrival order at the end, and
// contents identical to the id-indexed records of an identical run.
func TestPacketSinkStreams(t *testing.T) {
	build := func(rec obs.Recorder) Params {
		return Params{
			Seed:       3,
			Arrivals:   &traceSource{batches: [][2]int64{{0, 12}, {30, 6}}},
			NewStation: func(int64, *prng.Source) Station { return chaosStation{} },
			// Jamming from slot 40 on guarantees a mix: early packets
			// deliver, the rest are stuck when MaxSlots truncates the run.
			Jammer:   jamAfter{from: 40},
			MaxSlots: 400,
			Recorder: rec,
		}
	}
	var sunk []PacketStats
	e, err := NewEngine(build(obs.PacketFunc(func(p PacketStats) { sunk = append(sunk, p) })))
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(sunk)) != r.Arrived {
		t.Fatalf("sink saw %d packets, arrived %d", len(sunk), r.Arrived)
	}
	// Delivered prefix in departure order, then undelivered in id order.
	lastDepart := int64(-1)
	inFlush := false
	lastFlushID := int64(-1)
	for i, p := range sunk {
		if p.Departure >= 0 {
			if inFlush {
				t.Fatalf("delivered packet %d after the undelivered flush began", i)
			}
			if p.Departure < lastDepart {
				t.Fatalf("sink departures out of order at %d", i)
			}
			lastDepart = p.Departure
		} else {
			inFlush = true
			if p.ID <= lastFlushID {
				t.Fatalf("flush ids out of order at %d", i)
			}
			lastFlushID = p.ID
		}
	}
	if !r.Truncated || !inFlush {
		t.Fatalf("test instance should truncate with live packets (truncated=%v)", r.Truncated)
	}

	// Identical run recorded by id: same per-packet records.
	pt := &packetTable{}
	e2, err := NewEngine(build(pt))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int64]PacketStats, len(sunk))
	for _, p := range sunk {
		if _, dup := byID[p.ID]; dup {
			t.Fatalf("sink saw packet %d twice", p.ID)
		}
		byID[p.ID] = p
	}
	for _, p := range *pt {
		if byID[p.ID] != p {
			t.Fatalf("packet %d: sink %+v vs recorded %+v", p.ID, byID[p.ID], p)
		}
	}
}

// jamAfter jams every slot from `from` onward.
type jamAfter struct{ from int64 }

func (j jamAfter) Jammed(slot int64) bool { return slot >= j.from }
func (j jamAfter) CountRange(from, to int64) int64 {
	if from < j.from {
		from = j.from
	}
	if to <= from {
		return 0
	}
	return to - from
}

// TestFreeListBoundsLiveState: the slot table tracks peak backlog, not
// total arrivals — a long sequence of small disjoint busy periods must not
// grow it.
func TestFreeListBoundsLiveState(t *testing.T) {
	const (
		bursts    = 200
		burstSize = 3
		gap       = 1000
	)
	batches := make([][2]int64, bursts)
	for i := range batches {
		batches[i] = [2]int64{int64(i) * gap, burstSize}
	}
	e, err := NewEngine(Params{
		Seed:       5,
		Arrivals:   &traceSource{batches: batches},
		NewStation: func(int64, *prng.Source) Station { return chaosStation{} },
		MaxSlots:   int64(bursts+1) * gap,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Arrived != bursts*burstSize {
		t.Fatalf("arrived = %d", r.Arrived)
	}
	if r.Completed != r.Arrived {
		t.Fatalf("completed = %d of %d (raise gap so bursts drain)", r.Completed, r.Arrived)
	}
	// Each burst drains before the next arrives, so the slot table should
	// stay at the size of one burst's peak backlog — far below arrivals.
	if got := len(e.stations); got > 4*burstSize {
		t.Fatalf("slot table grew to %d entries for %d arrivals (free list broken)", got, r.Arrived)
	}
	if len(e.freeList) != len(e.stations) {
		t.Fatalf("free list %d != table %d at end of a drained run", len(e.freeList), len(e.stations))
	}
}
