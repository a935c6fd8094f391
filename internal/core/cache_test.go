package core_test

import (
	. "lowsensing/internal/core"

	"math"
	"strings"
	"testing"

	"lowsensing/internal/dist"
	"lowsensing/internal/sim"
	"lowsensing/prng"
)

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
// methods and dist.Geometric on a twin stream. Reset after the walk must
// restore a fresh packet's state exactly.
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
			for step := int64(0); step < 4000; step++ {
				o := outcomes[walk.Intn(len(outcomes))]
				p.Observe(sim.Observation{Slot: step, Outcome: o})
				switch o {
				case sim.OutcomeNoisy:
					w = cfg.Backoff(w)
				case sim.OutcomeEmpty:
					w = cfg.Backon(w)
				}
				if p.Window() != w {
					t.Fatalf("%+v step %d: window %v, want %v", cfg, step, p.Window(), w)
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
			p.Reset(0, nil)
			if !SameState(p, fresh) {
				t.Fatalf("%+v: Reset did not restore the fresh state", cfg)
			}
		}
	}
}
