// Package arrivals provides the packet-arrival processes used by the
// experiments: batch arrivals (all N at once), Bernoulli and Poisson
// arrivals, adversarial-queuing-theory (λ, S) streams with worst-case
// bursts, explicit traces, and concatenations of the above.
//
// All sources implement channel.ArrivalSource: a stream of (slot, count)
// batches in nondecreasing slot order.
package arrivals

import (
	"fmt"
	"math"

	"lowsensing/channel"
	"lowsensing/internal/dist"
	"lowsensing/prng"
)

// Batch is the classic batch instance: Count packets all arriving at Slot.
type Batch struct {
	Slot  int64
	Count int64
	done  bool
}

// NewBatch returns a batch of n packets arriving at slot 0. It panics if
// n <= 0, which would make every experiment vacuous.
func NewBatch(n int64) *Batch {
	if n <= 0 {
		panic("arrivals: NewBatch requires n > 0")
	}
	return &Batch{Slot: 0, Count: n}
}

// Next implements channel.ArrivalSource.
func (b *Batch) Next() (int64, int64, bool) {
	if b.done || b.Count <= 0 {
		return 0, 0, false
	}
	b.done = true
	return b.Slot, b.Count, true
}

var _ channel.ArrivalSource = (*Batch)(nil)

// Trace replays an explicit list of (slot, count) batches. Useful for
// regression tests and hand-crafted adversarial instances.
type Trace struct {
	batches []TraceBatch
	pos     int
}

// TraceBatch is one entry of a Trace.
type TraceBatch struct {
	Slot  int64
	Count int64
}

// NewTrace validates that slots are nondecreasing and counts positive, and
// returns the source.
func NewTrace(batches []TraceBatch) (*Trace, error) {
	var prev int64 = -1
	for i, b := range batches {
		if b.Slot < prev {
			return nil, fmt.Errorf("arrivals: trace slot %d at index %d precedes %d", b.Slot, i, prev)
		}
		if b.Count <= 0 {
			return nil, fmt.Errorf("arrivals: trace count %d at index %d must be positive", b.Count, i)
		}
		prev = b.Slot
	}
	return &Trace{batches: batches}, nil
}

// Next implements channel.ArrivalSource.
func (t *Trace) Next() (int64, int64, bool) {
	if t.pos >= len(t.batches) {
		return 0, 0, false
	}
	b := t.batches[t.pos]
	t.pos++
	return b.Slot, b.Count, true
}

var _ channel.ArrivalSource = (*Trace)(nil)

// Bernoulli injects one packet per slot independently with probability
// Rate, truncated after Total packets (Total <= 0 means unbounded; pair
// with sim.Params.MaxSlots). Gaps between arrivals are sampled
// geometrically so idle stretches cost O(1).
type Bernoulli struct {
	gap     dist.Geom // slots to the next arrival: Geometric(rate)
	total   int64
	emitted int64
	slot    int64
	rng     *prng.Source
}

// NewBernoulli returns a Bernoulli arrival source. It returns an error if
// rate is outside (0, 1].
func NewBernoulli(rate float64, total int64, seed uint64) (*Bernoulli, error) {
	if !(rate > 0 && rate <= 1) {
		return nil, fmt.Errorf("arrivals: Bernoulli rate must be in (0,1], got %v", rate)
	}
	return &Bernoulli{gap: dist.NewGeom(rate), total: total, slot: -1, rng: prng.NewStream(seed, 0x6265726e)}, nil
}

// Next implements channel.ArrivalSource.
func (b *Bernoulli) Next() (int64, int64, bool) {
	if b.total > 0 && b.emitted >= b.total {
		return 0, 0, false
	}
	b.slot += b.gap.Draw(b.rng)
	b.emitted++
	return b.slot, 1, true
}

var _ channel.ArrivalSource = (*Bernoulli)(nil)

// Poisson injects Poisson(Lambda) packets in every slot, truncated after
// Total packets (Total <= 0 means unbounded). Slots with zero arrivals are
// skipped by sampling the gap to the next nonempty slot geometrically with
// the exact probability 1 - e^-λ and then drawing the batch size from the
// zero-truncated Poisson distribution.
type Poisson struct {
	lambda  float64
	busy    dist.Geom // slots to the next nonempty slot: Geometric(1 - e^-λ)
	total   int64
	emitted int64
	slot    int64
	rng     *prng.Source
}

// NewPoisson returns a Poisson arrival source with mean lambda arrivals per
// slot. It returns an error if lambda <= 0.
func NewPoisson(lambda float64, total int64, seed uint64) (*Poisson, error) {
	if !(lambda > 0) {
		return nil, fmt.Errorf("arrivals: Poisson lambda must be > 0, got %v", lambda)
	}
	return &Poisson{
		lambda: lambda,
		busy:   dist.NewGeom(-math.Expm1(-lambda)), // 1 - e^-λ, computed stably
		total:  total,
		slot:   -1,
		rng:    prng.NewStream(seed, 0x706f6973),
	}, nil
}

// Next implements channel.ArrivalSource.
func (p *Poisson) Next() (int64, int64, bool) {
	if p.total > 0 && p.emitted >= p.total {
		return 0, 0, false
	}
	p.slot += p.busy.Draw(p.rng)
	// Zero-truncated Poisson via rejection: cheap because λ is typically
	// well below the regime where zero is rare.
	var k int64
	for k == 0 {
		k = dist.Poisson(p.rng, p.lambda)
	}
	if p.total > 0 && p.emitted+k > p.total {
		k = p.total - p.emitted
	}
	p.emitted += k
	return p.slot, k, true
}

var _ channel.ArrivalSource = (*Poisson)(nil)

// AQT generates adversarial-queuing-theory arrivals with granularity S and
// rate λ: every window of S consecutive slots receives at most λ·S packets
// (jamming budgets are handled by the jamming package; when combining, split
// λ between the two). The Burst strategy places the window's entire quota in
// its first slot — the worst case the model allows — while Spread places it
// uniformly at random inside the window. Windows controls how many windows
// are generated (<= 0 means unbounded).
type AQT struct {
	s        int64
	quota    int64
	windows  int64
	produced int64
	strategy AQTStrategy
	rng      *prng.Source
}

// AQTStrategy selects how the per-window quota is placed inside the window.
type AQTStrategy int

// Placement strategies for AQT windows.
const (
	// AQTBurst puts the whole quota in the first slot of each window.
	AQTBurst AQTStrategy = iota + 1
	// AQTSpread scatters the quota uniformly at random over the window.
	AQTSpread
)

// NewAQT returns an adversarial-queuing source. It returns an error if
// s <= 0, lambda is outside (0, 1), or the quota floor(λ·S) is zero (the
// window would be empty — raise λ or S).
func NewAQT(s int64, lambda float64, windows int64, strategy AQTStrategy, seed uint64) (*AQT, error) {
	if s <= 0 {
		return nil, fmt.Errorf("arrivals: AQT granularity must be > 0, got %d", s)
	}
	if !(lambda > 0 && lambda < 1) {
		return nil, fmt.Errorf("arrivals: AQT lambda must be in (0,1), got %v", lambda)
	}
	if strategy != AQTBurst && strategy != AQTSpread {
		return nil, fmt.Errorf("arrivals: unknown AQT strategy %d", strategy)
	}
	quota := int64(lambda * float64(s))
	if quota <= 0 {
		return nil, fmt.Errorf("arrivals: AQT quota floor(λ·S) = 0 for λ=%v S=%d", lambda, s)
	}
	return &AQT{s: s, quota: quota, windows: windows, strategy: strategy, rng: prng.NewStream(seed, 0x617174)}, nil
}

// Quota returns the per-window packet budget floor(λ·S).
func (a *AQT) Quota() int64 { return a.quota }

// Next implements channel.ArrivalSource.
func (a *AQT) Next() (int64, int64, bool) {
	if a.windows > 0 && a.produced >= a.windows {
		return 0, 0, false
	}
	base := a.produced * a.s
	a.produced++
	switch a.strategy {
	case AQTSpread:
		// One batch per window at a uniform offset keeps the source simple
		// while still exercising random placement; the whole quota lands
		// together, which is within the model's power.
		off := a.rng.Int63n(a.s)
		return base + off, a.quota, true
	default: // AQTBurst
		return base, a.quota, true
	}
}

var _ channel.ArrivalSource = (*AQT)(nil)

// Merge interleaves several sources into one nondecreasing stream, breaking
// same-slot ties by source index (lower index first) so the merge order —
// and therefore the packet-id assignment of a run — is deterministic. It
// panics if an inner source goes backwards. Inner sources must not be
// engine-bound: Merge consumes their heads ahead of injection.
//
// OnEmit, if set, is invoked for every emitted batch with the index of the
// originating source, before Next returns it. Multi-class scenarios use the
// hook to build the packet-id → class tape: the engine assigns ids densely
// in injection order, so the emission order is the id order.
type Merge struct {
	OnEmit  func(source int, slot, count int64)
	sources []channel.ArrivalSource
	heads   []mergeHead
	inited  bool
}

type mergeHead struct {
	slot  int64
	count int64
	ok    bool
}

// NewMerge returns a source merging the given sources. Nil sources are
// skipped (a churn process with no joins contributes nothing); source
// indices reported to OnEmit count the nil entries, so callers can index a
// parallel class table directly.
func NewMerge(sources ...channel.ArrivalSource) *Merge {
	return &Merge{sources: sources}
}

// Next implements channel.ArrivalSource.
func (m *Merge) Next() (int64, int64, bool) {
	if !m.inited {
		m.inited = true
		m.heads = make([]mergeHead, len(m.sources))
		for i, src := range m.sources {
			if src == nil {
				continue
			}
			slot, count, ok := src.Next()
			m.heads[i] = mergeHead{slot: slot, count: count, ok: ok}
		}
	}
	best := -1
	for i := range m.heads {
		h := &m.heads[i]
		if h.ok && (best < 0 || h.slot < m.heads[best].slot) {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	slot, count := m.heads[best].slot, m.heads[best].count
	nextSlot, nextCount, ok := m.sources[best].Next()
	if ok && nextSlot < slot {
		panic("arrivals: merged source went backwards")
	}
	m.heads[best] = mergeHead{slot: nextSlot, count: nextCount, ok: ok}
	if m.OnEmit != nil {
		m.OnEmit(best, slot, count)
	}
	return slot, count, true
}

var _ channel.ArrivalSource = (*Merge)(nil)
