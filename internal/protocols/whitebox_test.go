// White-box tests: these poke unexported protocol state directly and so
// live in the package itself. The engine-driven tests in protocols_test.go
// (package protocols_test) use only the exported surface, as a caller does.
package protocols

import (
	"testing"

	"lowsensing/channel"
	"lowsensing/internal/dist"
	"lowsensing/prng"
)

func TestBEBDoublesOnCollision(t *testing.T) {
	b := &BEB{window: 2}
	b.Observe(channel.Observation{Sent: true, Succeeded: false})
	if b.window != 4 {
		t.Fatalf("window = %d, want 4", b.window)
	}
	b.Observe(channel.Observation{Sent: false, Outcome: channel.OutcomeNoisy})
	if b.window != 4 {
		t.Fatal("window changed without own send")
	}
	b.Observe(channel.Observation{Sent: true, Succeeded: true})
	if b.window != 4 {
		t.Fatal("window changed on success")
	}
}

func TestBEBRespectsCap(t *testing.T) {
	b := &BEB{window: 8, max: 16}
	for i := 0; i < 10; i++ {
		b.Observe(channel.Observation{Sent: true})
	}
	if b.window != 16 {
		t.Fatalf("window = %d, want cap 16", b.window)
	}
}

func TestBEBScheduleWithinWindow(t *testing.T) {
	b := &BEB{window: 10}
	rng := prng.New(1)
	for i := 0; i < 1000; i++ {
		slot, send := b.ScheduleNext(100, rng)
		if !send {
			t.Fatal("BEB scheduled a non-send access")
		}
		if slot < 100 || slot >= 110 {
			t.Fatalf("slot %d outside window [100,110)", slot)
		}
	}
}

func TestPolyWindowGrowth(t *testing.T) {
	p := &Poly{w0: 2, alpha: 2}
	if got := p.Window(); got != 2 {
		t.Fatalf("initial window = %v", got)
	}
	p.Observe(channel.Observation{Sent: true})
	if got := p.Window(); got != 8 { // 2·(1+1)^2
		t.Fatalf("window after 1 collision = %v, want 8", got)
	}
	p.Observe(channel.Observation{Sent: true})
	if got := p.Window(); got != 18 { // 2·3^2
		t.Fatalf("window after 2 collisions = %v, want 18", got)
	}
}

func TestGenieAlohaTracksBacklog(t *testing.T) {
	f := NewGenieAlohaFactory()
	rng := prng.New(1)
	a := f(0, rng).(*GenieAloha)
	b := f(1, rng).(*GenieAloha)
	if a.shared != b.shared {
		t.Fatal("genie stations do not share state")
	}
	if a.shared.backlog != 2 {
		t.Fatalf("backlog = %d", a.shared.backlog)
	}
	a.Observe(channel.Observation{Sent: true, Succeeded: true})
	if b.shared.backlog != 1 {
		t.Fatalf("backlog after departure = %d", b.shared.backlog)
	}
}

func TestMWUUpdates(t *testing.T) {
	m := &MWU{p: 0.25, pMax: 0.5, step: 2}
	m.Observe(channel.Observation{Outcome: channel.OutcomeEmpty})
	if m.p != 0.5 {
		t.Fatalf("p after empty = %v", m.p)
	}
	m.Observe(channel.Observation{Outcome: channel.OutcomeEmpty})
	if m.p != 0.5 {
		t.Fatalf("p exceeded cap: %v", m.p)
	}
	m.Observe(channel.Observation{Outcome: channel.OutcomeNoisy})
	if m.p != 0.25 {
		t.Fatalf("p after noisy = %v", m.p)
	}
	m.Observe(channel.Observation{Outcome: channel.OutcomeSuccess})
	if m.p != 0.25 {
		t.Fatalf("p after success = %v", m.p)
	}
	if m.Window() != 4 {
		t.Fatalf("window = %v", m.Window())
	}
}

func TestSawtoothPhaseStructure(t *testing.T) {
	s := &Sawtooth{}
	s.startEpoch(1)
	if s.window() != 2 || s.remaining != 2 {
		t.Fatalf("epoch 1 start: w=%d rem=%d", s.window(), s.remaining)
	}
	s.advance()
	if s.window() != 1 {
		t.Fatalf("after advance: w=%d", s.window())
	}
	s.advance() // past sub-phase epoch -> epoch 2
	if s.epoch != 2 || s.window() != 4 || s.remaining != 4 {
		t.Fatalf("epoch 2 start: epoch=%d w=%d rem=%d", s.epoch, s.window(), s.remaining)
	}
	if s.Window() != 4 {
		t.Fatalf("Window() = %v", s.Window())
	}
}

// scheduleNextDeferred is Sawtooth.ScheduleNext as it was written with a
// deferred advance inside its loop: the reference the direct version must
// match draw for draw.
func scheduleNextDeferred(s *Sawtooth, from int64, rng *prng.Source) (int64, bool) {
	offset := int64(0)
	for {
		w := s.window()
		g := dist.Geometric(rng, 1/float64(w))
		if g <= s.remaining {
			s.remaining -= g
			if s.remaining == 0 {
				defer s.advance()
			}
			return from + offset + g - 1, true
		}
		offset += s.remaining
		s.advance()
	}
}

// TestSawtoothScheduleNextNoAllocs walks a station through many sub-phase
// and epoch ends, checks every (slot, send) and the state after each call
// against the deferred-advance reference, and requires the walk to
// allocate nothing.
func TestSawtoothScheduleNextNoAllocs(t *testing.T) {
	const calls = 400
	var s, ref Sawtooth
	s.Reset(0, nil)
	ref.Reset(0, nil)
	rng, refRng := prng.New(11), prng.New(11)
	from := int64(0)
	phaseEnds, epochs := 0, 0
	for i := range calls {
		epoch := s.epoch
		slot, send := s.ScheduleNext(from, rng)
		wantSlot, wantSend := scheduleNextDeferred(&ref, from, refRng)
		if slot != wantSlot || send != wantSend || s != ref {
			t.Fatalf("call %d: (%d, %v) state %+v, deferred reference (%d, %v) state %+v",
				i, slot, send, s, wantSlot, wantSend, ref)
		}
		if s.remaining == s.window() { // the send took a sub-phase's last slot
			phaseEnds++
		}
		if s.epoch != epoch {
			epochs++
		}
		from = slot + 1
	}
	if rng.Uint64() != refRng.Uint64() {
		t.Fatal("the direct and deferred walks drew different rng streams")
	}
	if phaseEnds < calls/10 || epochs < 3 {
		t.Fatalf("walk crossed %d sub-phase ends and %d epoch ends; want many of both", phaseEnds, epochs)
	}

	if a := testing.AllocsPerRun(20, func() {
		s.Reset(0, nil)
		from := int64(0)
		for range calls {
			slot, _ := s.ScheduleNext(from, rng)
			from = slot + 1
		}
	}); a != 0 {
		t.Fatalf("a %d-call ScheduleNext walk allocates %v times, want 0", calls, a)
	}
}
