package core

import (
	"unsafe"

	"lowsensing/prng"
)

// Decide makes the per-slot decision directly: whether the packet accesses
// the channel this slot and, if so, whether it sends. It is equivalent in
// distribution to ScheduleNext; the per-slot reference run in this
// package's tests uses it as an implementation independent of the
// event-driven engine.
func (p *Packet) Decide(rng *prng.Source) (access, send bool) {
	if !rng.Bernoulli(p.win.access.P()) {
		return false, false
	}
	return true, rng.Bernoulli(p.win.send)
}

// CachedProbs returns the access and send probabilities p holds for its
// current window.
func CachedProbs(p *Packet) (access, send float64) { return p.win.access.P(), p.win.send }

// SameState reports whether a and b have one configuration and hold
// identical window states. Their memos may differ.
func SameState(a, b *Packet) bool { return a.Config() == b.Config() && a.win == b.win }

// ExactWindowState reports whether p's window state is exactly what its
// configuration computes afresh at p's window.
func ExactWindowState(p *Packet) bool { return p.win == p.Config().window(p.win.w) }

// MoveTo moves p to window w as an observation would.
func MoveTo(p *Packet, w float64) { p.moveTo(w) }

// HasMemo reports whether p's factory has allocated its memo.
func HasMemo(p *Packet) bool { return p.lc.memo != nil }

// MemoHolds reports whether p's factory memo holds the window state at w.
func MemoHolds(p *Packet, w float64) bool {
	return p.lc.memo != nil && p.lc.memo[memoSlot(w)].w == w
}

// MemoSlot is the memo entry a window maps to.
var MemoSlot = memoSlot

// IntPow is the integer-exponent kernel lnPow tries before math.Pow.
var IntPow = intPow

// WindowSize is the size of a packet's cached window state.
const WindowSize = unsafe.Sizeof(window{})
