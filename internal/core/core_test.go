package core_test

import (
	. "lowsensing/internal/core"

	"math"
	"testing"
	"testing/quick"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/sim"
	"lowsensing/prng"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", Default(), true},
		{"paper-scale", Config{C: 2, WMin: 4096, LnPower: 3}, true},
		{"zero C", Config{C: 0, WMin: 8, LnPower: 3}, false},
		{"negative C", Config{C: -1, WMin: 8, LnPower: 3}, false},
		{"nan C", Config{C: math.NaN(), WMin: 8, LnPower: 3}, false},
		{"inf C", Config{C: math.Inf(1), WMin: 8, LnPower: 3}, false},
		{"wmin too small", Config{C: 0.5, WMin: 2, LnPower: 3}, false},
		{"access prob > 1", Config{C: 10, WMin: 8, LnPower: 3}, false},
		{"negative power", Config{C: 0.5, WMin: 8, LnPower: -1}, false},
		{"power zero ok", Config{C: 0.5, WMin: 8, LnPower: 0}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if c.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestProbabilityIdentity(t *testing.T) {
	// AccessProb(w) * SendProbGivenAccess(w) == 1/w whenever neither factor
	// clamps; this is the defining identity of the algorithm.
	cfg := Default()
	for _, w := range []float64{10, 100, 1e4, 1e8} {
		got := cfg.AccessProb(w) * cfg.SendProbGivenAccess(w)
		if math.Abs(got-1/w) > 1e-12/w {
			t.Fatalf("p_access*p_send at w=%v is %v, want %v", w, got, 1/w)
		}
	}
}

func TestProbabilitiesInRange(t *testing.T) {
	cfg := Default()
	f := func(raw uint32) bool {
		w := cfg.WMin + float64(raw)
		pa := cfg.AccessProb(w)
		ps := cfg.SendProbGivenAccess(w)
		return pa > 0 && pa <= 1 && ps > 0 && ps <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessProbDecreasesInW(t *testing.T) {
	cfg := Default()
	prev := cfg.AccessProb(cfg.WMin)
	// c·ln³(w)/w is eventually decreasing; it is monotone decreasing for
	// w >= e^3. Check beyond that point.
	start := math.Exp(3)
	prev = cfg.AccessProb(start)
	for w := start * 1.5; w < 1e9; w *= 1.5 {
		p := cfg.AccessProb(w)
		if p >= prev {
			t.Fatalf("AccessProb not decreasing at w=%v: %v >= %v", w, p, prev)
		}
		prev = p
	}
}

func TestUpdateRules(t *testing.T) {
	cfg := Default()
	w := 100.0
	up := cfg.Backoff(w)
	wantUp := w * (1 + 1/(cfg.C*math.Log(w)))
	if math.Abs(up-wantUp) > 1e-9 {
		t.Fatalf("Backoff(100) = %v, want %v", up, wantUp)
	}
	down := cfg.Backon(w)
	wantDown := w / (1 + 1/(cfg.C*math.Log(w)))
	if math.Abs(down-wantDown) > 1e-9 {
		t.Fatalf("Backon(100) = %v, want %v", down, wantDown)
	}
}

func TestBackonFloorsAtWMin(t *testing.T) {
	cfg := Default()
	if got := cfg.Backon(cfg.WMin); got != cfg.WMin {
		t.Fatalf("Backon(WMin) = %v", got)
	}
	if got := cfg.Backon(cfg.WMin * 1.0001); got != cfg.WMin {
		t.Fatalf("Backon(WMin*1.0001) = %v, want floor at %v", got, cfg.WMin)
	}
}

func TestBackoffBackonNearInverse(t *testing.T) {
	// Backon(Backoff(w)) ~ w: not exactly (the factor is evaluated at the
	// new window), but within the O(1/ln²w) slack the analysis tolerates.
	cfg := Default()
	for _, w := range []float64{50, 1e3, 1e6} {
		round := cfg.Backon(cfg.Backoff(w))
		if math.Abs(round-w)/w > 0.05 {
			t.Fatalf("Backon(Backoff(%v)) = %v, drift too large", w, round)
		}
	}
}

func TestUpdateMonotonicityProperty(t *testing.T) {
	// For any window >= WMin: Backoff strictly grows, Backon strictly
	// shrinks (until the WMin floor), and both preserve finiteness —
	// under both update rules.
	for _, update := range []UpdateRule{UpdatePaper, UpdateDoubling} {
		cfg := Default()
		cfg.Update = update
		f := func(raw uint32) bool {
			w := cfg.WMin + float64(raw)/16
			up := cfg.Backoff(w)
			if !(up > w) || math.IsInf(up, 0) {
				return false
			}
			down := cfg.Backon(w)
			if down < cfg.WMin {
				return false
			}
			if w > cfg.WMin*1.01 && !(down < w) {
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("update rule %d: %v", update, err)
		}
	}
}

func TestDoublingRuleFactors(t *testing.T) {
	cfg := Default()
	cfg.Update = UpdateDoubling
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Backoff(100); got != 200 {
		t.Fatalf("doubling Backoff(100) = %v", got)
	}
	if got := cfg.Backon(100); got != 50 {
		t.Fatalf("doubling Backon(100) = %v", got)
	}
	if got := cfg.Backon(cfg.WMin * 1.5); got != cfg.WMin {
		t.Fatalf("doubling Backon floor = %v", got)
	}
	bad := Default()
	bad.Update = UpdateRule(7)
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown update rule accepted")
	}
}

func TestWindowInvariantUnderRandomFeedback(t *testing.T) {
	// Property: whatever the feedback sequence, the window stays >= WMin
	// and is finite.
	cfg := Default()
	rng := prng.New(42)
	p, err := NewPacket(cfg)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := []sim.Outcome{sim.OutcomeEmpty, sim.OutcomeSuccess, sim.OutcomeNoisy}
	for i := 0; i < 100000; i++ {
		o := outcomes[rng.Intn(len(outcomes))]
		p.Observe(sim.Observation{Slot: int64(i), Outcome: o})
		if p.Window() < cfg.WMin {
			t.Fatalf("window %v fell below WMin after %d updates", p.Window(), i)
		}
		if math.IsInf(p.Window(), 0) || math.IsNaN(p.Window()) {
			t.Fatalf("window degenerate: %v", p.Window())
		}
	}
}

func TestObserveTransitions(t *testing.T) {
	cfg := Default()
	p, _ := NewPacket(cfg)
	w0 := p.Window()

	p.Observe(sim.Observation{Outcome: sim.OutcomeNoisy})
	if p.Window() <= w0 {
		t.Fatalf("noisy slot did not grow window: %v", p.Window())
	}
	w1 := p.Window()

	p.Observe(sim.Observation{Outcome: sim.OutcomeSuccess})
	if p.Window() != w1 {
		t.Fatalf("heard success changed window: %v != %v", p.Window(), w1)
	}

	p.Observe(sim.Observation{Outcome: sim.OutcomeEmpty})
	if p.Window() >= w1 {
		t.Fatalf("empty slot did not shrink window: %v", p.Window())
	}

	// Own success: no state change required, must not panic.
	p.Observe(sim.Observation{Outcome: sim.OutcomeSuccess, Sent: true, Succeeded: true})
}

func TestSendImpliesNoListenDoubleCount(t *testing.T) {
	// ScheduleNext's send decision and gap must be reproducible from the
	// same stream: determinism check.
	cfg := Default()
	mk := func() (*Packet, *prng.Source) {
		p, _ := NewPacket(cfg)
		return p, prng.New(7)
	}
	p1, r1 := mk()
	p2, r2 := mk()
	for i := 0; i < 1000; i++ {
		s1, send1 := p1.ScheduleNext(int64(i), r1)
		s2, send2 := p2.ScheduleNext(int64(i), r2)
		if s1 != s2 || send1 != send2 {
			t.Fatalf("nondeterministic schedule at %d", i)
		}
	}
}

func TestScheduleNextGapDistribution(t *testing.T) {
	// Mean gap should be 1/AccessProb(WMin); send frequency among accesses
	// should be SendProbGivenAccess(WMin).
	cfg := Default()
	p, _ := NewPacket(cfg)
	rng := prng.New(11)
	const n = 200000
	var gapSum float64
	sends := 0
	for i := 0; i < n; i++ {
		slot, send := p.ScheduleNext(0, rng)
		gapSum += float64(slot + 1) // gap = slot - from + 1
		if send {
			sends++
		}
	}
	wantGap := 1 / cfg.AccessProb(cfg.WMin)
	gotGap := gapSum / n
	if math.Abs(gotGap-wantGap)/wantGap > 0.02 {
		t.Fatalf("mean gap = %v, want %v", gotGap, wantGap)
	}
	wantSend := cfg.SendProbGivenAccess(cfg.WMin)
	gotSend := float64(sends) / n
	if math.Abs(gotSend-wantSend) > 0.01 {
		t.Fatalf("send fraction = %v, want %v", gotSend, wantSend)
	}
}

func TestDecideMatchesScheduleDistribution(t *testing.T) {
	// Decide's per-slot access rate must equal AccessProb; this ties the
	// per-slot interface (referenceRun) to the event-driven one (sim).
	cfg := Default()
	p, _ := NewPacket(cfg)
	rng := prng.New(13)
	const n = 500000
	accesses, sends := 0, 0
	for i := 0; i < n; i++ {
		a, s := p.Decide(rng)
		if s && !a {
			t.Fatal("send without access")
		}
		if a {
			accesses++
		}
		if s {
			sends++
		}
	}
	if got, want := float64(accesses)/n, cfg.AccessProb(cfg.WMin); math.Abs(got-want) > 0.005 {
		t.Fatalf("access rate = %v, want %v", got, want)
	}
	// Unconditional send rate = 1/WMin.
	if got, want := float64(sends)/n, 1/cfg.WMin; math.Abs(got-want) > 0.005 {
		t.Fatalf("send rate = %v, want %v", got, want)
	}
}

func TestNewPacketRejectsInvalid(t *testing.T) {
	if _, err := NewPacket(Config{C: 10, WMin: 8, LnPower: 3}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewFactory(Config{}); err == nil {
		t.Fatal("zero config accepted by factory")
	}
}

func TestMustFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFactory did not panic")
		}
	}()
	MustFactory(Config{})
}

// referenceRun simulates a batch of n LSB packets with a naive per-slot
// loop using Packet.Decide — an independent implementation of the channel
// semantics used to cross-validate the event-driven engine.
func referenceRun(t *testing.T, cfg Config, n int, seed uint64, maxSlots int64) (activeSlots int64, completed int) {
	t.Helper()
	type st struct {
		p   *Packet
		rng *prng.Source
	}
	stations := make([]*st, 0, n)
	for i := 0; i < n; i++ {
		p, err := NewPacket(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stations = append(stations, &st{p: p, rng: prng.NewStream(seed, uint64(i)+1)})
	}
	for slot := int64(0); len(stations) > 0 && slot < maxSlots; slot++ {
		activeSlots++
		accessors := make([]int, 0, 4)
		senders := make([]int, 0, 4)
		for i, s := range stations {
			a, snd := s.p.Decide(s.rng)
			if a {
				accessors = append(accessors, i)
			}
			if snd {
				senders = append(senders, i)
			}
		}
		var outcome sim.Outcome
		switch len(senders) {
		case 0:
			outcome = sim.OutcomeEmpty
		case 1:
			outcome = sim.OutcomeSuccess
		default:
			outcome = sim.OutcomeNoisy
		}
		departed := -1
		for _, i := range accessors {
			sent := false
			for _, j := range senders {
				if j == i {
					sent = true
				}
			}
			succeeded := sent && outcome == sim.OutcomeSuccess
			stations[i].p.Observe(sim.Observation{Slot: slot, Outcome: outcome, Sent: sent, Succeeded: succeeded})
			if succeeded {
				departed = i
			}
		}
		if departed >= 0 {
			stations = append(stations[:departed], stations[departed+1:]...)
			completed++
		}
	}
	return activeSlots, completed
}

func TestEngineMatchesReferenceStatistically(t *testing.T) {
	// The event-driven engine and the naive per-slot reference implement
	// the same process with different RNG consumption; their mean
	// active-slot counts over many seeds must agree within noise.
	cfg := Default()
	const n = 40
	const reps = 30
	const maxSlots = 1 << 20

	var refSum, engSum float64
	for rep := 0; rep < reps; rep++ {
		seed := uint64(1000 + rep)
		refActive, refDone := referenceRun(t, cfg, n, seed^0xabcdef, maxSlots)
		if refDone != n {
			t.Fatalf("reference run %d incomplete: %d/%d", rep, refDone, n)
		}
		refSum += float64(refActive)

		e, err := sim.NewEngine(sim.Params{
			Seed:       seed,
			Arrivals:   arrivals.NewBatch(n),
			NewStation: MustFactory(cfg),
			MaxSlots:   maxSlots,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Completed != n {
			t.Fatalf("engine run %d incomplete: %d/%d", rep, r.Completed, n)
		}
		engSum += float64(r.ActiveSlots)
	}
	refMean := refSum / reps
	engMean := engSum / reps
	if diff := math.Abs(refMean-engMean) / refMean; diff > 0.15 {
		t.Fatalf("engine mean active slots %v deviates %.0f%% from reference %v", engMean, diff*100, refMean)
	}
}

func TestBatchRunCompletesWithConstantThroughput(t *testing.T) {
	cfg := Default()
	for _, n := range []int64{16, 128, 1024} {
		e, err := sim.NewEngine(sim.Params{
			Seed:       77,
			Arrivals:   arrivals.NewBatch(n),
			NewStation: MustFactory(cfg),
			MaxSlots:   1 << 24,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Completed != n {
			t.Fatalf("n=%d: only %d completed", n, r.Completed)
		}
		tp := r.Throughput()
		if tp < 0.02 {
			t.Fatalf("n=%d: throughput %v collapsed", n, tp)
		}
	}
}

func TestEnergyIsPolylogNotLinear(t *testing.T) {
	// Smoke-level check of Theorem 1.6: accesses per packet grow far slower
	// than the number of active slots per packet.
	cfg := Default()
	e, err := sim.NewEngine(sim.Params{
		Seed:       99,
		Arrivals:   arrivals.NewBatch(2048),
		NewStation: MustFactory(cfg),
		MaxSlots:   1 << 26,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 2048 {
		t.Fatalf("incomplete: %d", r.Completed)
	}
	mean := r.MeanAccesses()
	ln := math.Log(2048)
	if mean > 10*ln*ln {
		t.Fatalf("mean accesses %v exceeds 10·ln² N = %v", mean, 10*ln*ln)
	}
	if max := r.MaxAccesses(); float64(max) > 40*ln*ln*ln {
		t.Fatalf("max accesses %v not polylog-ish (40·ln³ N = %v)", max, 40*ln*ln*ln)
	}
}
