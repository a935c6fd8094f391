package protocols

import (
	"lowsensing/channel"
	"lowsensing/internal/dist"
	"lowsensing/prng"
)

// Sawtooth implements sawtooth backoff in the style of Bender,
// Farach-Colton, He, Kuszmaul, and Leiserson ("Adversarial contention
// resolution for simple channels", SPAA 2005): the packet proceeds in
// epochs i = 1, 2, ...; within epoch i it sweeps sub-phases with window
// sizes w = 2^i, 2^(i-1), ..., 1, spending w slots at each and sending
// independently with probability 1/w per slot. Some sub-phase always
// matches the true backlog once 2^i reaches it, so a *batch* of n packets
// finishes in O(n) slots with constant throughput — without any feedback
// at all (the protocol is fully oblivious; it never listens).
//
// The paper under reproduction cites this line of work to make the point
// that obliviousness is only enough for batches: with dynamic adversarial
// arrivals the staggered sawtooth phases misalign and throughput degrades
// (experiment E11 measures this).
type Sawtooth struct {
	epoch     int   // current epoch; windows sweep 2^epoch .. 1
	sub       int   // current sub-phase: window = 2^(epoch-sub)
	remaining int64 // slots left in the current sub-phase
}

// NewSawtoothFactory returns a factory for sawtooth-backoff stations.
func NewSawtoothFactory() channel.StationFactory {
	return func(_ int64, _ *prng.Source) channel.Station {
		s := &Sawtooth{}
		s.startEpoch(1)
		return s
	}
}

// Reset implements channel.ReusableStation: a recycled station restarts at
// epoch 1, exactly as the factory constructs it.
func (s *Sawtooth) Reset(_ int64, _ *prng.Source) { s.startEpoch(1) }

// maxEpoch caps window growth at 2^40 slots. A real run resolves long
// before reaching it; the cap only prevents int64 overflow in adversarial
// tests that force endless rescheduling.
const maxEpoch = 40

func (s *Sawtooth) startEpoch(i int) {
	if i > maxEpoch {
		i = maxEpoch
	}
	s.epoch = i
	s.sub = 0
	s.remaining = 1 << uint(i)
}

// window returns the current sub-phase's window size.
func (s *Sawtooth) window() int64 { return 1 << uint(s.epoch-s.sub) }

// Window exposes the current sub-phase window for window-sampling recorders.
func (s *Sawtooth) Window() float64 { return float64(s.window()) }

// advance moves to the next sub-phase (or next epoch).
func (s *Sawtooth) advance() {
	s.sub++
	if s.sub > s.epoch {
		s.startEpoch(s.epoch + 1)
		return
	}
	s.remaining = s.window()
}

// ScheduleNext implements channel.Station: find the next slot this packet
// sends, walking sub-phases until a geometric draw lands inside one.
func (s *Sawtooth) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
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

// Observe implements channel.Station: sawtooth backoff is oblivious; nothing
// reacts to feedback (a successful packet simply departs).
func (s *Sawtooth) Observe(channel.Observation) {}

var (
	_ channel.Station         = (*Sawtooth)(nil)
	_ channel.Windowed        = (*Sawtooth)(nil)
	_ channel.ReusableStation = (*Sawtooth)(nil)
)
