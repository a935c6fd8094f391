// Package jamming implements the noise adversaries of the model: oblivious
// jammers (random-rate, fixed interval), adaptive jammers that observe
// public history, and reactive jammers that see the current slot's senders
// before deciding (paper §1.3).
//
// All jammers implement channel.Jammer. Jammed(t) must be a deterministic
// function of t and the jammer's state so that the engine's accounting and
// any reactive queries agree; random jammers therefore derive per-slot
// decisions from a counter-based PRF rather than a sequential stream.
package jamming

import (
	"fmt"

	"lowsensing/channel"
	"lowsensing/internal/dist"
	"lowsensing/internal/sim"
	"lowsensing/prng"
)

// Random jams each slot independently with probability Rate, using a
// per-slot PRF so decisions are deterministic in the slot number. Budget
// limits the total number of jammed slots counted through CountRange and
// Jammed combined (<= 0 means unbounded). Note that with a budget the
// process is "first Budget jams win" in accounting order, which matches an
// adversary that stops jamming once its budget is spent.
type Random struct {
	rate   float64
	budget int64
	spent  int64
	seed   uint64
	rng    *prng.Source // used only for CountRange sampling
}

// NewRandom returns a random jammer. It returns an error unless rate is in
// (0, 1].
func NewRandom(rate float64, budget int64, seed uint64) (*Random, error) {
	if !(rate > 0 && rate <= 1) {
		return nil, fmt.Errorf("jamming: Random rate must be in (0,1], got %v", rate)
	}
	return &Random{rate: rate, budget: budget, seed: prng.Mix64(seed ^ 0x6a616d72), rng: prng.NewStream(seed, 0x6a616d72)}, nil
}

// Jammed implements channel.Jammer.
func (r *Random) Jammed(slot int64) bool {
	if r.budget > 0 && r.spent >= r.budget {
		return false
	}
	u := prng.Mix64(r.seed ^ uint64(slot)*0x9e3779b97f4a7c15)
	jam := float64(u>>11)/(1<<53) < r.rate
	if jam {
		r.spent++
	}
	return jam
}

// CountRange implements channel.Jammer. The slots in [from, to) were observed
// by no one, so the count may be sampled from Binomial(len, rate); this is
// distributionally exact and avoids O(range) work.
func (r *Random) CountRange(from, to int64) int64 {
	if to <= from {
		return 0
	}
	n := dist.Binomial(r.rng, to-from, r.rate)
	if r.budget > 0 {
		remain := r.budget - r.spent
		if remain <= 0 {
			return 0
		}
		if n > remain {
			n = remain
		}
	}
	r.spent += n
	return n
}

var _ channel.Jammer = (*Random)(nil)

// Interval jams every slot in [From, To).
type Interval struct {
	From, To int64
}

// NewInterval returns a jammer covering [from, to). It returns an error if
// to <= from.
func NewInterval(from, to int64) (*Interval, error) {
	if to <= from {
		return nil, fmt.Errorf("jamming: interval [%d,%d) is empty", from, to)
	}
	return &Interval{From: from, To: to}, nil
}

// Jammed implements channel.Jammer.
func (iv *Interval) Jammed(slot int64) bool { return slot >= iv.From && slot < iv.To }

// CountRange implements channel.Jammer.
func (iv *Interval) CountRange(from, to int64) int64 {
	lo, hi := max(from, iv.From), min(to, iv.To)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// NextJammedInRange implements channel.RangeJammer: the first slot of
// [from, to) that falls inside [From, To).
func (iv *Interval) NextJammedInRange(from, to int64) (int64, bool) {
	s := max(from, iv.From)
	if s < min(to, iv.To) {
		return s, true
	}
	return 0, false
}

var _ channel.RangeJammer = (*Interval)(nil)

// Adaptive jams based on observed public history: it jams the current slot
// whenever the backlog it can infer exceeds Threshold, up to Budget jams
// (<= 0 means unbounded). This realizes the adaptive adversary of §1.1: it
// sees the full state through the previous slot. It jams only slots it can
// observe being resolved; unobserved slots are left alone (CountRange = 0),
// which is within the adversary's power and is its best use of budget.
type Adaptive struct {
	Threshold int64
	Budget    int64
	spent     int64
	eng       *sim.Engine
}

// NewAdaptive returns a backlog-triggered adaptive jammer.
func NewAdaptive(threshold, budget int64) (*Adaptive, error) {
	if threshold < 0 {
		return nil, fmt.Errorf("jamming: threshold must be >= 0, got %d", threshold)
	}
	return &Adaptive{Threshold: threshold, Budget: budget}, nil
}

// Bind implements sim.EngineBound.
func (a *Adaptive) Bind(e *sim.Engine) { a.eng = e }

// Jammed implements channel.Jammer.
func (a *Adaptive) Jammed(int64) bool {
	if a.eng == nil {
		return false
	}
	if a.Budget > 0 && a.spent >= a.Budget {
		return false
	}
	if a.eng.Backlog() > a.Threshold {
		a.spent++
		return true
	}
	return false
}

// CountRange implements channel.Jammer.
func (a *Adaptive) CountRange(int64, int64) int64 { return 0 }

var (
	_ channel.Jammer  = (*Adaptive)(nil)
	_ sim.EngineBound = (*Adaptive)(nil)
)

// ReactiveTargeted is the reactive adversary of §1.3 aimed at a single
// packet: it jams exactly those slots in which the target transmits, up to
// Budget jams (<= 0 means unbounded). It cannot see listening, only
// sending, matching the model.
type ReactiveTargeted struct {
	Target int64
	Budget int64
	spent  int64
}

// NewReactiveTargeted returns a reactive jammer that blocks packet target.
func NewReactiveTargeted(target, budget int64) (*ReactiveTargeted, error) {
	if target < 0 {
		return nil, fmt.Errorf("jamming: target must be >= 0, got %d", target)
	}
	return &ReactiveTargeted{Target: target, Budget: budget}, nil
}

// Spent returns the number of jams used so far.
func (r *ReactiveTargeted) Spent() int64 { return r.spent }

// JammedReactive implements channel.ReactiveJammer.
func (r *ReactiveTargeted) JammedReactive(_ int64, senders []int64) bool {
	if r.Budget > 0 && r.spent >= r.Budget {
		return false
	}
	for _, s := range senders {
		if s == r.Target {
			r.spent++
			return true
		}
	}
	return false
}

// Jammed implements channel.Jammer (never consulted by the engine for reactive
// jammers on resolved slots, but required by the interface).
func (r *ReactiveTargeted) Jammed(int64) bool { return false }

// CountRange implements channel.Jammer: a reactive jammer wastes no budget on
// slots where nothing is sent.
func (r *ReactiveTargeted) CountRange(int64, int64) int64 { return 0 }

var _ channel.ReactiveJammer = (*ReactiveTargeted)(nil)

// ReactiveAll jams every slot in which anybody transmits, up to Budget
// jams. This is the strongest send-triggered reactive strategy; with an
// unbounded budget it prevents all progress, which tests use to verify the
// engine's truncation path.
type ReactiveAll struct {
	Budget int64
	spent  int64
}

// NewReactiveAll returns a reactive jammer that jams all transmissions.
func NewReactiveAll(budget int64) *ReactiveAll { return &ReactiveAll{Budget: budget} }

// Spent returns the number of jams used so far.
func (r *ReactiveAll) Spent() int64 { return r.spent }

// JammedReactive implements channel.ReactiveJammer.
func (r *ReactiveAll) JammedReactive(_ int64, senders []int64) bool {
	if len(senders) == 0 {
		return false
	}
	if r.Budget > 0 && r.spent >= r.Budget {
		return false
	}
	r.spent++
	return true
}

// Jammed implements channel.Jammer.
func (r *ReactiveAll) Jammed(int64) bool { return false }

// CountRange implements channel.Jammer.
func (r *ReactiveAll) CountRange(int64, int64) int64 { return 0 }

var _ channel.ReactiveJammer = (*ReactiveAll)(nil)
