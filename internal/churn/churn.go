// Package churn provides the population-churn processes used by the
// robustness experiments: flash crowds that pile extra flows onto a running
// system, epoch renewals where every packet abandons at the next epoch
// boundary, and Poisson join/leave where flows trickle in and give up after
// geometrically-distributed patience.
//
// All processes implement channel.Churn: Joins is the extra arrival stream
// injected on top of the scenario's base arrivals (nil when the process
// only removes packets), and LeaveSlot is a pure function of (id, arrival)
// and construction-time parameters, so cluster execution and
// single-engine runs see identical lifetimes.
package churn

import (
	"fmt"

	"lowsensing/channel"
	"lowsensing/internal/arrivals"
	"lowsensing/internal/dist"
	"lowsensing/prng"
)

// lifeStream salts the per-packet patience stream of PoissonJoinLeave so it
// cannot collide with the join source's stream ("life").
const lifeStream = 0x6c696665

// FlashCrowd injects N extra packets all at once at Slot — the classic
// flash-crowd shock — and, when Lifetime > 0, gives every packet (base and
// crowd alike) a fixed patience of Lifetime slots after its arrival.
type FlashCrowd struct {
	slot     int64
	n        int64
	lifetime int64
}

// NewFlashCrowd returns a flash-crowd process. It returns an error if
// slot is negative or n <= 0 (an empty crowd is a configuration mistake,
// not a degenerate case).
func NewFlashCrowd(slot, n, lifetime int64) (*FlashCrowd, error) {
	if slot < 0 {
		return nil, fmt.Errorf("churn: flash-crowd slot must be >= 0, got %d", slot)
	}
	if n <= 0 {
		return nil, fmt.Errorf("churn: flash-crowd size must be > 0, got %d", n)
	}
	return &FlashCrowd{slot: slot, n: n, lifetime: lifetime}, nil
}

// Joins implements channel.Churn.
func (f *FlashCrowd) Joins() channel.ArrivalSource {
	return &arrivals.Batch{Slot: f.slot, Count: f.n}
}

// LeaveSlot implements channel.Churn: arrival + Lifetime, or never when
// Lifetime <= 0.
func (f *FlashCrowd) LeaveSlot(id, arrival int64) int64 {
	if f.lifetime <= 0 {
		return -1
	}
	return arrival + f.lifetime
}

var _ channel.Churn = (*FlashCrowd)(nil)

// Epochs removes every packet still undelivered at the next multiple of
// Period after its arrival — the epoch-renewal population, where flows are
// re-issued each epoch and stale work is abandoned. It injects no joins.
type Epochs struct {
	period int64
}

// NewEpochs returns an epoch-renewal process. It returns an error if
// period <= 0.
func NewEpochs(period int64) (*Epochs, error) {
	if period <= 0 {
		return nil, fmt.Errorf("churn: epoch period must be > 0, got %d", period)
	}
	return &Epochs{period: period}, nil
}

// Joins implements channel.Churn; epoch renewal only removes packets.
func (e *Epochs) Joins() channel.ArrivalSource { return nil }

// LeaveSlot implements channel.Churn: the first multiple of Period strictly
// after arrival.
func (e *Epochs) LeaveSlot(id, arrival int64) int64 {
	return (arrival/e.period + 1) * e.period
}

var _ channel.Churn = (*Epochs)(nil)

// PoissonJoinLeave injects Poisson(Rate) extra packets per slot (truncated
// after N) and gives every packet an independent geometric patience: a
// packet abandons LeaveRate-geometrically many slots after its arrival.
// LeaveRate = 0 disables leaving (pure join churn).
type PoissonJoinLeave struct {
	rate  float64
	n     int64
	leave dist.Geom // patience: Geometric(leaveRate); p = 0 never leaves
	seed  uint64
}

// NewPoissonJoinLeave returns a Poisson join/leave process. It returns an
// error if rate <= 0, n <= 0, or leaveRate is outside [0, 1].
func NewPoissonJoinLeave(rate float64, n int64, leaveRate float64, seed uint64) (*PoissonJoinLeave, error) {
	if !(rate > 0) {
		return nil, fmt.Errorf("churn: poisson-join-leave rate must be > 0, got %v", rate)
	}
	if n <= 0 {
		return nil, fmt.Errorf("churn: poisson-join-leave join budget must be > 0, got %d", n)
	}
	if !(leaveRate >= 0 && leaveRate <= 1) {
		return nil, fmt.Errorf("churn: poisson-join-leave leave rate must be in [0,1], got %v", leaveRate)
	}
	return &PoissonJoinLeave{rate: rate, n: n, leave: dist.NewGeom(leaveRate), seed: seed}, nil
}

// Joins implements channel.Churn.
func (p *PoissonJoinLeave) Joins() channel.ArrivalSource {
	src, err := arrivals.NewPoisson(p.rate, p.n, p.seed)
	if err != nil {
		// Unreachable: the constructor validated rate > 0.
		panic(err)
	}
	return src
}

// LeaveSlot implements channel.Churn: arrival plus a geometric draw from a
// per-packet stream derived from (seed, id) alone, so the patience is a
// pure function of the packet identity regardless of call order.
func (p *PoissonJoinLeave) LeaveSlot(id, arrival int64) int64 {
	if p.leave.P() == 0 {
		return -1
	}
	var src prng.Source
	src.Reinit(p.seed^lifeStream, prng.Mix64(uint64(id)))
	return arrival + p.leave.Draw(&src)
}

var _ channel.Churn = (*PoissonJoinLeave)(nil)
