package lowsensing

import (
	"reflect"
	"testing"

	"lowsensing/obs"
)

func TestQuickstartFlow(t *testing.T) {
	res, err := Scenario{Seed: 1, Arrivals: BatchArrivals(256)}.Run()
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
	if _, err := (Scenario{Seed: 1}).Run(); err == nil {
		t.Fatal("missing arrivals accepted")
	}
}

func TestBadOptionSurfacesAtRun(t *testing.T) {
	batch := BatchArrivals(10)
	for name, sc := range map[string]Scenario{
		"negative batch":      {Arrivals: BatchArrivals(-5)},
		"invalid config":      {Arrivals: batch, Protocol: LowSensing(Config{C: -1})},
		"invalid jam rate":    {Arrivals: batch, Jammer: RandomJamming(2, 0)},
		"empty burst":         {Arrivals: batch, Jammer: BurstJamming(5, 5)},
		"bad reactive target": {Arrivals: batch, Jammer: ReactiveJamming(-1, 0)},
		"bad bernoulli rate":  {Arrivals: BernoulliArrivals(0, 1)},
		"bad poisson rate":    {Arrivals: PoissonArrivals(-1, 1)},
		"bad AQT granularity": {Arrivals: QueueArrivals(0, 0.1, 5)},
	} {
		if _, err := sc.Simulation().Run(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestDeterminismViaSeed(t *testing.T) {
	run := func() (Result, []PacketStats) {
		var pk []PacketStats
		res, err := Scenario{Seed: 42, Arrivals: BatchArrivals(64)}.
			Simulation(WithRecorder(obs.PacketFunc(func(p PacketStats) { pk = append(pk, p) }))).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, pk
	}
	a, pa := run()
	b, pb := run()
	if a.ActiveSlots != b.ActiveSlots || a.Completed != b.Completed {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
	if len(pa) != 64 || !reflect.DeepEqual(pa, pb) {
		t.Fatalf("packet streams differ (%d vs %d records)", len(pa), len(pb))
	}

	// The seed reaches the seeded components built at Run time: a Poisson
	// workload under another seed is another run.
	poisson := Scenario{Arrivals: PoissonArrivals(0.2, 200)}
	zero, err := poisson.Run()
	if err != nil {
		t.Fatal(err)
	}
	poisson.Seed = 7
	seven, err := poisson.Run()
	if err != nil {
		t.Fatal(err)
	}
	if zero.LastSlot == seven.LastSlot && zero.Energy == seven.Energy {
		t.Fatal("Scenario.Seed had no effect")
	}
}

func TestBaselineOptions(t *testing.T) {
	sc := Scenario{Seed: 2, Arrivals: BatchArrivals(128)}
	// listened counts the run's packets that listened at least once.
	var listened int
	run := func(p ProtocolSpec) (Result, error) {
		sc.Protocol = p
		listened = 0
		return sc.Simulation(WithRecorder(obs.PacketFunc(func(p PacketStats) {
			if p.Listens != 0 {
				listened++
			}
		}))).Run()
	}
	beb, err := run(BEB())
	if err != nil {
		t.Fatal(err)
	}
	if beb.Completed != 128 {
		t.Fatalf("BEB completed = %d", beb.Completed)
	}
	// BEB never listens.
	if listened != 0 {
		t.Fatal("BEB listened")
	}
	mwu, err := run(MWU())
	if err != nil {
		t.Fatal(err)
	}
	if mwu.Completed != 128 {
		t.Fatalf("MWU completed = %d", mwu.Completed)
	}
	saw, err := run(Sawtooth())
	if err != nil {
		t.Fatal(err)
	}
	if saw.Completed != 128 {
		t.Fatalf("Sawtooth completed = %d", saw.Completed)
	}
	if listened != 0 {
		t.Fatal("sawtooth listened")
	}
}

func TestJammingOptions(t *testing.T) {
	sc := Scenario{Seed: 3, Arrivals: BatchArrivals(64)}
	run := func(j JammerSpec) (Result, error) {
		sc.Jammer = j
		return sc.Run()
	}
	res, err := run(BurstJamming(0, 256))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 64 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.JammedSlots == 0 {
		t.Fatal("no jams recorded")
	}

	res2, err := run(RandomJamming(0.2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Completed != 64 {
		t.Fatalf("random-jam completed = %d", res2.Completed)
	}

	res3, err := run(ReactiveJamming(0, 10))
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
	res, err := Scenario{
		Seed:     4,
		Arrivals: QueueArrivals(256, 0.1, 10),
		MaxSlots: 2560,
	}.Simulation(WithRecorder(col)).Run()
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
	res, err := Scenario{Seed: 5, Arrivals: BatchArrivals(16)}.Simulation(
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
	res, err := Scenario{
		Seed:     6,
		Arrivals: BatchArrivals(32),
		Protocol: LowSensing(Config{C: 1, WMin: 128, LnPower: 3}),
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 32 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

// TestPacketRetentionIsOptIn: default runs carry only the streaming
// accumulators, and per-packet records come from a recorder: an
// obs.PacketFunc sink sees every packet, and folding what it saw gives
// back the run's accumulators.
func TestPacketRetentionIsOptIn(t *testing.T) {
	sc := Scenario{Seed: 1, Arrivals: BatchArrivals(64)}
	def, err := sc.Run()
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
	res, err := sc.Simulation(WithRecorder(obs.PacketFunc(func(p PacketStats) { sunk = append(sunk, p) }))).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != nil {
		t.Fatal("sink run retained packets")
	}
	if int64(len(sunk)) != res.Arrived {
		t.Fatalf("sink saw %d of %d packets", len(sunk), res.Arrived)
	}
	// Same seed: the sink's records and both runs' accumulators agree.
	var folded EnergyStats
	for _, p := range sunk {
		folded.AddPacket(p)
	}
	if folded != res.Energy || res.Energy != def.Energy {
		t.Fatal("sink records disagree with the accumulators")
	}
}
