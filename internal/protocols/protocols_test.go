package protocols_test

import (
	. "lowsensing/internal/protocols"

	"math"
	"testing"

	"lowsensing/channel"
	"lowsensing/internal/arrivals"
	"lowsensing/internal/sim"
	"lowsensing/obs"
	"lowsensing/prng"
)

// runBatch runs an n-packet batch and returns its result and every
// packet's record in emission order.
func runBatch(t *testing.T, factory channel.StationFactory, n, maxSlots int64, seed uint64) (sim.Result, []sim.PacketStats) {
	t.Helper()
	var packets []sim.PacketStats
	e, err := sim.NewEngine(sim.Params{
		Seed:       seed,
		Arrivals:   arrivals.NewBatch(n),
		NewStation: factory,
		MaxSlots:   maxSlots,
		Recorder:   obs.PacketFunc(func(p obs.PacketEvent) { packets = append(packets, p) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, packets
}

func TestBEBValidation(t *testing.T) {
	if _, err := NewBEBFactory(0, 0); err == nil {
		t.Fatal("window 0 accepted")
	}
	if _, err := NewBEBFactory(8, 4); err == nil {
		t.Fatal("max < initial accepted")
	}
}

func TestBEBCompletesBatch(t *testing.T) {
	f, err := NewBEBFactory(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, packets := runBatch(t, f, 256, 1<<22, 3)
	if r.Completed != 256 {
		t.Fatalf("completed = %d", r.Completed)
	}
	// BEB is send-only: listens must be zero.
	for _, p := range packets {
		if p.Listens != 0 {
			t.Fatalf("packet %d listened %d times", p.ID, p.Listens)
		}
	}
}

func TestBEBThroughputDegradesRelativeToGenie(t *testing.T) {
	// The motivating contrast: at N=1024, BEB's throughput is well below
	// the genie's ~1/e.
	fBEB, _ := NewBEBFactory(2, 0)
	rBEB, _ := runBatch(t, fBEB, 1024, 1<<24, 5)
	rGenie, _ := runBatch(t, NewGenieAlohaFactory(), 1024, 1<<24, 5)
	if rBEB.Completed != 1024 || rGenie.Completed != 1024 {
		t.Fatalf("incomplete: %d / %d", rBEB.Completed, rGenie.Completed)
	}
	if rBEB.Throughput() >= rGenie.Throughput() {
		t.Fatalf("BEB %.3f not below genie %.3f", rBEB.Throughput(), rGenie.Throughput())
	}
}

func TestPolyValidation(t *testing.T) {
	if _, err := NewPolyFactory(0, 2); err == nil {
		t.Fatal("w0=0 accepted")
	}
	if _, err := NewPolyFactory(2, 0); err == nil {
		t.Fatal("alpha=0 accepted")
	}
}

func TestPolyCompletesBatch(t *testing.T) {
	f, err := NewPolyFactory(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := runBatch(t, f, 128, 1<<22, 7)
	if r.Completed != 128 {
		t.Fatalf("completed = %d", r.Completed)
	}
}

func TestAlohaValidation(t *testing.T) {
	for _, p := range []float64{0, -1, 1.5} {
		if _, err := NewAlohaFactory(p); err == nil {
			t.Fatalf("p=%v accepted", p)
		}
	}
}

func TestAlohaSendRate(t *testing.T) {
	f, err := NewAlohaFactory(0.125)
	if err != nil {
		t.Fatal(err)
	}
	st := f(0, nil)
	rng := prng.New(2)
	var gaps float64
	const n = 100000
	for i := 0; i < n; i++ {
		slot, send := st.ScheduleNext(0, rng)
		if !send {
			t.Fatal("ALOHA access without send")
		}
		gaps += float64(slot + 1)
	}
	if mean := gaps / n; math.Abs(mean-8) > 0.2 {
		t.Fatalf("mean gap = %v, want 8", mean)
	}
}

func TestGenieAlohaNearInverseEThroughput(t *testing.T) {
	r, _ := runBatch(t, NewGenieAlohaFactory(), 1024, 1<<22, 11)
	if r.Completed != 1024 {
		t.Fatalf("completed = %d", r.Completed)
	}
	tput := r.Throughput()
	if tput < 0.3 || tput > 0.45 {
		t.Fatalf("genie throughput = %v, want ~1/e", tput)
	}
}

func TestMWUConfigValidation(t *testing.T) {
	if err := DefaultMWUConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []MWUConfig{
		{PInit: 0, PMax: 0.5, Step: 1.2},
		{PInit: 0.5, PMax: 0.25, Step: 1.2},
		{PInit: 0.25, PMax: 0.5, Step: 1},
		{PInit: 0.25, PMax: 1.5, Step: 1.2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestMWUListensEverySlot(t *testing.T) {
	f, err := NewMWUFactory(DefaultMWUConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, packets := runBatch(t, f, 64, 1<<20, 13)
	if r.Completed != 64 {
		t.Fatalf("completed = %d", r.Completed)
	}
	// Every packet accesses the channel in every slot it is alive, so its
	// access count equals its latency.
	for _, p := range packets {
		if p.Accesses() != p.Latency() {
			t.Fatalf("packet %d: accesses %d != latency %d", p.ID, p.Accesses(), p.Latency())
		}
	}
	if r.Throughput() < 0.1 {
		t.Fatalf("MWU throughput collapsed: %v", r.Throughput())
	}
}

func TestFixedValidation(t *testing.T) {
	if _, err := NewFixedFactory(0, 0.5); err == nil {
		t.Fatal("pSend 0 accepted")
	}
	if _, err := NewFixedFactory(0.5, -0.1); err == nil {
		t.Fatal("negative pListen accepted")
	}
	if _, err := NewFixedFactory(0.5, 1.1); err == nil {
		t.Fatal("pListen > 1 accepted")
	}
}

func TestFixedRates(t *testing.T) {
	f, err := NewFixedFactory(0.1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	st := f(0, nil)
	rng := prng.New(4)
	const n = 200000
	var gapSum float64
	sends := 0
	for i := 0; i < n; i++ {
		slot, send := st.ScheduleNext(0, rng)
		gapSum += float64(slot + 1)
		if send {
			sends++
		}
	}
	pAccess := 0.1 + 0.3 - 0.1*0.3
	if mean := gapSum / n; math.Abs(mean-1/pAccess) > 0.05 {
		t.Fatalf("mean gap = %v, want %v", mean, 1/pAccess)
	}
	// Unconditional send rate = pSend.
	sendRate := float64(sends) / n * pAccess
	if math.Abs(sendRate-0.1) > 0.01 {
		t.Fatalf("send rate = %v, want 0.1", sendRate)
	}
}
