package core_test

import (
	. "lowsensing/internal/core"

	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/dist"
	"lowsensing/internal/sim"
	"lowsensing/prng"
)

// TestStateSizes pins the sizes every live packet pays for: the sampler
// (p and 1/ln(1-p)), the window state that holds it, and the Packet that
// holds that. One more float in Geom takes a Packet from 48 bytes to 56,
// which the allocator rounds to its 64-byte size class.
func TestStateSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"dist.Geom", unsafe.Sizeof(dist.Geom{}), 16},
		{"window", WindowSize, 40},
		{"Packet", unsafe.Sizeof(Packet{}), 48},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestValidateRejectsUnderflow: with WMin < e, ln(WMin) < 1 and a large k
// drives ln^k(WMin) to 0, so the access probability at WMin is 0 and every
// geometric draw would panic at run time. Validate must catch it and say so.
func TestValidateRejectsUnderflow(t *testing.T) {
	for _, k := range []float64{10000, math.Inf(1)} {
		err := Config{C: 0.5, WMin: 2.5, LnPower: k}.Validate()
		if err == nil || !strings.Contains(err.Error(), "underflow") {
			t.Fatalf("k=%v: Validate = %v, want an underflow error", k, err)
		}
	}
}

// TestCachedWindowStateMatchesConfig drives random outcome walks under both
// update rules and several exponents k, and checks the packet's cached
// window state after every step: the window against Config.Backoff/Backon,
// the cached probabilities against AccessProb/SendProbGivenAccess bit for
// bit, and ScheduleNext and Decide against references built from the Config
// methods and dist.Geometric on a twin stream. Moves to a window the
// factory's memo already holds must occur in every walk and, like misses,
// leave exactly the state computed afresh. Reset after the walk must restore
// a fresh packet's state exactly. Subtests cover a forced memo collision
// and a factory reused by engines in sequence.
func TestCachedWindowStateMatchesConfig(t *testing.T) {
	configs := []Config{
		{C: 0.5, WMin: 8, LnPower: 0},
		{C: 0.5, WMin: 8, LnPower: 1},
		{C: 0.5, WMin: 8, LnPower: 3},
		{C: 0.1, WMin: 256, LnPower: 4},
	}
	outcomes := []sim.Outcome{sim.OutcomeEmpty, sim.OutcomeSuccess, sim.OutcomeNoisy}
	for _, update := range []UpdateRule{UpdatePaper, UpdateDoubling} {
		for _, cfg := range configs {
			cfg.Update = update
			factory, err := NewFactory(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh := factory(0, nil).(*Packet)
			p := factory(1, nil).(*Packet)
			walk := prng.New(uint64(update)*16 + uint64(cfg.LnPower))
			rng, twin := prng.New(99), prng.New(99)
			w := cfg.WMin
			hits := 0
			for step := int64(0); step < 4000; step++ {
				o := outcomes[walk.Intn(len(outcomes))]
				prev := w
				switch o {
				case sim.OutcomeNoisy:
					w = cfg.Backoff(w)
				case sim.OutcomeEmpty:
					w = cfg.Backon(w)
				}
				if w != prev && w != cfg.WMin && MemoHolds(p, w) {
					hits++
				}
				p.Observe(sim.Observation{Slot: step, Outcome: o})
				if p.Window() != w {
					t.Fatalf("%+v step %d: window %v, want %v", cfg, step, p.Window(), w)
				}
				if !ExactWindowState(p) {
					t.Fatalf("%+v step %d: window state at w=%v differs from a fresh computation", cfg, step, w)
				}
				access, send := CachedProbs(p)
				if access != cfg.AccessProb(w) || send != cfg.SendProbGivenAccess(w) {
					t.Fatalf("%+v step %d: cached probs (%v, %v) at w=%v, want (%v, %v)",
						cfg, step, access, send, w, cfg.AccessProb(w), cfg.SendProbGivenAccess(w))
				}
				slot, snd := p.ScheduleNext(step, rng)
				wantSlot := step + dist.Geometric(twin, cfg.AccessProb(w)) - 1
				wantSend := twin.Bernoulli(cfg.SendProbGivenAccess(w))
				if slot != wantSlot || snd != wantSend {
					t.Fatalf("%+v step %d: ScheduleNext = (%d, %v), want (%d, %v)", cfg, step, slot, snd, wantSlot, wantSend)
				}
				a, s := p.Decide(rng)
				wantA := twin.Bernoulli(cfg.AccessProb(w))
				wantS := wantA && twin.Bernoulli(cfg.SendProbGivenAccess(w))
				if a != wantA || s != wantS {
					t.Fatalf("%+v step %d: Decide = (%v, %v), want (%v, %v)", cfg, step, a, s, wantA, wantS)
				}
			}
			if *rng != *twin {
				t.Fatalf("%+v: packet and reference consumed different draws", cfg)
			}
			if hits == 0 {
				t.Fatalf("%+v: no move in 4000 steps hit the window memo", cfg)
			}
			p.Reset(0, nil)
			if !SameState(p, fresh) {
				t.Fatalf("%+v: Reset did not restore the fresh state", cfg)
			}
		}
	}

	t.Run("collision", func(t *testing.T) {
		cfg := Default()
		p, err := NewPacket(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Moves that leave the window in place or return it to WMin do not
		// touch the memo, so they do not allocate it either.
		MoveTo(p, cfg.WMin)
		p.Observe(sim.Observation{Outcome: sim.OutcomeSuccess})
		if HasMemo(p) {
			t.Fatal("memo allocated before the first miss")
		}
		w1 := cfg.Backoff(cfg.WMin)
		w2 := w1
		for w2 == w1 || MemoSlot(w2) != MemoSlot(w1) {
			w2 = math.Nextafter(w2, math.Inf(1))
		}
		// w1 and w2 share one entry: each move evicts the other, and each
		// still leaves its own exact state.
		for i, w := range []float64{w1, w2, w1, w2} {
			other := w1
			if w == w1 {
				other = w2
			}
			MoveTo(p, w)
			if p.Window() != w || !ExactWindowState(p) {
				t.Fatalf("move %d to %v: window %v, exact state %v", i, w, p.Window(), ExactWindowState(p))
			}
			if !MemoHolds(p, w) || MemoHolds(p, other) {
				t.Fatalf("move %d to %v: memo holds it %v, holds the evicted %v %v",
					i, w, MemoHolds(p, w), other, MemoHolds(p, other))
			}
		}
		// A window in another entry survives the round trip and is hit.
		w3 := cfg.Backoff(w2)
		for MemoSlot(w3) == MemoSlot(w2) {
			w3 = math.Nextafter(w3, math.Inf(1))
		}
		MoveTo(p, w3)
		MoveTo(p, w2)
		if !MemoHolds(p, w3) {
			t.Fatalf("window %v evicted by a move to another entry", w3)
		}
		MoveTo(p, w3)
		if p.Window() != w3 || !ExactWindowState(p) {
			t.Fatalf("hit at %v: window %v, exact state %v", w3, p.Window(), ExactWindowState(p))
		}
	})

	t.Run("factory reused in sequence", func(t *testing.T) {
		run := func(factory sim.StationFactory, seed uint64) sim.Result {
			e, err := sim.NewEngine(sim.Params{
				Seed:          seed,
				Arrivals:      arrivals.NewBatch(256),
				NewStation:    factory,
				ReuseStations: true,
				MaxSlots:      1 << 22,
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
		for _, cfg := range configs {
			reused := MustFactory(cfg)
			for _, seed := range []uint64{3, 4} {
				got, want := run(reused, seed), run(MustFactory(cfg), seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v seed %d: a factory reused after another engine gave a different Result than a fresh one", cfg, seed)
				}
			}
		}
	})
}

// TestLnPowMatchesPow checks the integer-exponent kernel against math.Pow
// bit for bit for k = 0…8 on 10^6 values of ln w spread over
// [ln 2, ln 2^62] (half uniform in value, half uniform in float bits), on
// ln w for w uniform in the bits of every positive float64, and on the edge
// values math.Log returns. Non-integer exponents and exponents above 8 must
// fall back to math.Pow, and so must the probabilities computed from them.
func TestLnPowMatchesPow(t *testing.T) {
	lo, hi := math.Ln2, 62*math.Ln2
	loBits, hiBits := math.Float64bits(lo), math.Float64bits(hi)
	rng := prng.New(2024)
	xs := []float64{
		0, 1, lo, hi, math.Inf(1), math.Inf(-1),
		math.Log(math.Nextafter(1, 2)), math.Log(math.Nextafter(1, 0)),
		math.Log(math.MaxFloat64), math.Log(math.SmallestNonzeroFloat64),
	}
	for i := 0; i < 500_000; i++ {
		xs = append(xs,
			lo+(hi-lo)*rng.Float64(),
			math.Float64frombits(loBits+rng.Uint64n(hiBits-loBits+1)))
	}
	for i := 0; i < 200_000; i++ {
		xs = append(xs, math.Log(math.Float64frombits(1+rng.Uint64n(math.Float64bits(math.MaxFloat64)))))
	}
	for k := 0.0; k <= 8; k++ {
		for _, x := range xs {
			got, ok := IntPow(x, k)
			if want := math.Pow(x, k); !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("IntPow(%v, %v) = %v, %v; want math.Pow's %v", x, k, got, ok, want)
			}
		}
	}
	for _, k := range []float64{0.5, 2.5, 3 + 1e-9, 8.5, 9, 10, 1e300, math.Inf(1), math.NaN(), -1} {
		if _, ok := IntPow(3.7, k); ok {
			t.Errorf("IntPow took k = %v; want the math.Pow fallback", k)
		}
	}
	for _, k := range []float64{2.5, 9} {
		cfg := Config{C: 0.5, WMin: 1e6, LnPower: k}
		w := 3e7
		if got, want := cfg.SendProbGivenAccess(w), 1/(cfg.C*math.Pow(math.Log(w), k)); got != want {
			t.Errorf("k = %v: SendProbGivenAccess = %v, want %v", k, got, want)
		}
	}
}
