package lowsensing

import (
	"reflect"
	"testing"

	"lowsensing/obs"
)

func TestQuickstartFlow(t *testing.T) {
	res, err := NewSimulation(
		WithSeed(1),
		WithBatchArrivals(256),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 256 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if tp := res.Throughput(); tp < 0.1 {
		t.Fatalf("throughput = %v", tp)
	}
	es := SummarizeEnergy(res)
	if es.Accesses.Mean <= 0 || es.Undelivered != 0 {
		t.Fatalf("energy summary = %+v", es)
	}
}

func TestMissingArrivalsFails(t *testing.T) {
	if _, err := NewSimulation(WithSeed(1)).Run(); err == nil {
		t.Fatal("missing arrivals accepted")
	}
}

func TestBadOptionSurfacesAtRun(t *testing.T) {
	if _, err := NewSimulation(WithBatchArrivals(-5)).Run(); err == nil {
		t.Fatal("negative batch accepted")
	}
	if _, err := NewSimulation(WithBatchArrivals(10), WithLowSensing(Config{})).Run(); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewSimulation(WithBatchArrivals(10), WithRandomJamming(2, 0)).Run(); err == nil {
		t.Fatal("invalid jam rate accepted")
	}
	if _, err := NewSimulation(WithBatchArrivals(10), WithBurstJamming(5, 5)).Run(); err == nil {
		t.Fatal("empty burst accepted")
	}
	if _, err := NewSimulation(WithBatchArrivals(10), WithReactiveJamming(-1, 0)).Run(); err == nil {
		t.Fatal("bad reactive target accepted")
	}
	if _, err := NewSimulation(WithBatchArrivals(10), WithBernoulliArrivals(0, 1)).Run(); err == nil {
		t.Fatal("bad bernoulli rate accepted")
	}
	if _, err := NewSimulation(WithBatchArrivals(10), WithPoissonArrivals(-1, 1)).Run(); err == nil {
		t.Fatal("bad poisson rate accepted")
	}
	if _, err := NewSimulation(WithQueueArrivals(0, 0.1, 5)).Run(); err == nil {
		t.Fatal("bad AQT granularity accepted")
	}
}

func TestDeterminismViaSeed(t *testing.T) {
	run := func() Result {
		res, err := NewSimulation(WithSeed(42), WithBatchArrivals(64), WithRetainPacketStats()).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.ActiveSlots != b.ActiveSlots || a.Completed != b.Completed {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestBaselineOptions(t *testing.T) {
	beb, err := NewSimulation(WithSeed(2), WithBatchArrivals(128), WithBinaryExponentialBackoff(), WithRetainPacketStats()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if beb.Completed != 128 {
		t.Fatalf("BEB completed = %d", beb.Completed)
	}
	// BEB never listens.
	for _, p := range beb.Packets {
		if p.Listens != 0 {
			t.Fatal("BEB listened")
		}
	}
	mwu, err := NewSimulation(WithSeed(2), WithBatchArrivals(128), WithFullSensingMWU()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if mwu.Completed != 128 {
		t.Fatalf("MWU completed = %d", mwu.Completed)
	}
	saw, err := NewSimulation(WithSeed(2), WithBatchArrivals(128), WithSawtoothBackoff(), WithRetainPacketStats()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if saw.Completed != 128 {
		t.Fatalf("Sawtooth completed = %d", saw.Completed)
	}
	for _, p := range saw.Packets {
		if p.Listens != 0 {
			t.Fatal("sawtooth listened")
		}
	}
}

func TestJammingOptions(t *testing.T) {
	res, err := NewSimulation(
		WithSeed(3),
		WithBatchArrivals(64),
		WithBurstJamming(0, 256),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 64 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.JammedSlots == 0 {
		t.Fatal("no jams recorded")
	}

	res2, err := NewSimulation(
		WithSeed(3),
		WithBatchArrivals(64),
		WithRandomJamming(0.2, 0),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Completed != 64 {
		t.Fatalf("random-jam completed = %d", res2.Completed)
	}

	res3, err := NewSimulation(
		WithSeed(3),
		WithBatchArrivals(64),
		WithReactiveJamming(0, 10),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res3.Completed != 64 {
		t.Fatalf("reactive completed = %d", res3.Completed)
	}
	if res3.JammedSlots != 10 {
		t.Fatalf("reactive jams = %d, want 10", res3.JammedSlots)
	}
}

func TestQueueArrivalsAndCollector(t *testing.T) {
	col := &Collector{Every: 8}
	res, err := NewSimulation(
		WithSeed(4),
		WithQueueArrivals(256, 0.1, 10),
		WithRecorder(col),
		WithMaxSlots(2560),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived != 250 {
		t.Fatalf("arrived = %d, want 10 windows x 25", res.Arrived)
	}
	if col.MaxBacklog() == 0 {
		t.Fatal("collector saw nothing")
	}
	if float64(col.MaxBacklog()) > 3*256 {
		t.Fatalf("backlog %d not O(S)", col.MaxBacklog())
	}
}

func TestTracerAndMultipleRecorders(t *testing.T) {
	tr := &Tracer{}
	col := &Collector{}
	ring := obs.NewRing(1 << 12)
	res, err := NewSimulation(
		WithSeed(5),
		WithBatchArrivals(16),
		WithRecorder(tr),
		WithRecorder(col),
		WithRecorder(ring),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 16 {
		t.Fatalf("completed = %d", res.Completed)
	}
	slots := ring.Slots()
	if len(tr.Events()) == 0 || len(slots) == 0 || ring.Dropped() != 0 {
		t.Fatalf("recorders not all invoked: %d events, %d ring slots (%d dropped)",
			len(tr.Events()), len(slots), ring.Dropped())
	}
	// Every recorder sees the same slot stream; the bound Collector samples
	// the engine at each of those slots.
	if !reflect.DeepEqual(tr.Events(), slots) || len(col.Samples()) != len(slots) {
		t.Fatalf("tracer %d events, ring %d slots, collector %d samples",
			len(tr.Events()), len(slots), len(col.Samples()))
	}
	for i, s := range col.Samples() {
		if s.Slot != slots[i].Slot || s.Backlog != slots[i].Backlog {
			t.Fatalf("sample %d at slot %d backlog %d, slot event %+v", i, s.Slot, s.Backlog, slots[i])
		}
	}
}

func TestCustomStationsOption(t *testing.T) {
	res, err := NewSimulation(
		WithSeed(6),
		WithBatchArrivals(32),
		WithLowSensing(Config{C: 1, WMin: 128, LnPower: 3}),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 32 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

// TestOptionOrderIndependentOfSeed: seeded components (arrival processes,
// random jammers) are constructed at Run time from the final seed, so
// WithSeed works in any position. This is a regression test for a bug
// where WithPoissonArrivals captured the seed at option-apply time and
// NewSimulation(WithPoissonArrivals(...), WithSeed(7)) silently ran with
// seed 0.
func TestOptionOrderIndependentOfSeed(t *testing.T) {
	run := func(opts ...Option) Result {
		t.Helper()
		res, err := NewSimulation(opts...).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(a, b Result) bool {
		return a.Arrived == b.Arrived && a.Completed == b.Completed &&
			a.ActiveSlots == b.ActiveSlots && a.JammedSlots == b.JammedSlots &&
			a.LastSlot == b.LastSlot && a.Energy == b.Energy
	}

	seedFirst := run(WithSeed(7), WithPoissonArrivals(0.2, 200))
	seedLast := run(WithPoissonArrivals(0.2, 200), WithSeed(7))
	if !same(seedFirst, seedLast) {
		t.Fatal("Poisson arrivals: option order changed the run")
	}
	// And the seed must actually take effect: seed 0 gives a different
	// arrival pattern (the pre-fix failure mode was silently running with
	// seed 0 whenever WithSeed came last).
	seedZero := run(WithPoissonArrivals(0.2, 200))
	if same(seedLast, seedZero) {
		t.Fatal("WithSeed(7) after WithPoissonArrivals had no effect")
	}

	jamFirst := run(WithSeed(9), WithBatchArrivals(64), WithRandomJamming(0.2, 0))
	jamLast := run(WithRandomJamming(0.2, 0), WithBatchArrivals(64), WithSeed(9))
	if !same(jamFirst, jamLast) {
		t.Fatal("random jamming: option order changed the run")
	}

	bernFirst := run(WithSeed(11), WithBernoulliArrivals(0.1, 100))
	bernLast := run(WithBernoulliArrivals(0.1, 100), WithSeed(11))
	if !same(bernFirst, bernLast) {
		t.Fatal("Bernoulli arrivals: option order changed the run")
	}

	aqtFirst := run(WithSeed(13), WithQueueArrivals(128, 0.2, 4))
	aqtLast := run(WithQueueArrivals(128, 0.2, 4), WithSeed(13))
	if !same(aqtFirst, aqtLast) {
		t.Fatal("AQT arrivals: option order changed the run")
	}
}

// TestPacketRetentionIsOptIn: default runs carry only the streaming
// accumulators; WithRetainPacketStats materializes Packets and an
// obs.PacketFunc recorder streams every packet without retention.
func TestPacketRetentionIsOptIn(t *testing.T) {
	def, err := NewSimulation(WithSeed(1), WithBatchArrivals(64)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if def.Packets != nil {
		t.Fatalf("default run retained %d packets", len(def.Packets))
	}
	if def.Energy.Packets() != 64 || def.MeanAccesses() <= 0 {
		t.Fatalf("accumulators missing: %d packets, mean %v", def.Energy.Packets(), def.MeanAccesses())
	}

	var sunk []PacketStats
	res, err := NewSimulation(
		WithSeed(1),
		WithBatchArrivals(64),
		WithRecorder(obs.PacketFunc(func(p PacketStats) { sunk = append(sunk, p) })),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != nil {
		t.Fatal("sink run retained packets")
	}
	if int64(len(sunk)) != res.Arrived {
		t.Fatalf("sink saw %d of %d packets", len(sunk), res.Arrived)
	}

	ret, err := NewSimulation(WithSeed(1), WithBatchArrivals(64), WithRetainPacketStats()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(ret.Packets)) != ret.Arrived {
		t.Fatalf("retained %d of %d packets", len(ret.Packets), ret.Arrived)
	}
	// Same seed: sink, retained, and accumulator views must agree.
	for _, p := range sunk {
		if ret.Packets[p.ID] != p {
			t.Fatalf("packet %d: sink %+v vs retained %+v", p.ID, p, ret.Packets[p.ID])
		}
	}
	if ret.Energy != def.Energy {
		t.Fatal("accumulators differ between retention modes")
	}
}
