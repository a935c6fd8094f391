// Package sim implements the slotted multiple-access channel model of
// Bender et al. (PODC 2024), §1.1: synchronized slots, ternary feedback
// (empty / success / noisy), adversarial packet arrivals, and adversarial
// jamming, against adaptive and reactive adversaries.
//
// The engine is event-driven. A station's action probabilities change only
// when it accesses the channel, so the gap to its next access has a fixed
// distribution and can be sampled up front; the engine schedules next-
// access events on a hierarchical timing wheel (see timingWheel) and skips
// slots in which no station acts. Skipped active slots still count toward
// the active-slot total, and jammed slots inside skipped ranges are
// accounted through Jammer.CountRange. This makes runs with large windows
// (the common case for LOW-SENSING BACKOFF) cost O(total channel
// accesses), not O(total slots) — and the wheel makes each access O(1)
// amortized to schedule and extract, where the previous min-heap paid
// O(log backlog).
//
// # Memory model
//
// The engine is built for streaming scale: live state is O(backlog), not
// O(total arrivals), and the steady-state packet lifecycle allocates
// nothing. The timing wheel threads its buckets through one node array
// indexed by slot-table entry (an inlined 4-ary min-heap remains as its
// far-future overflow level), departed packets' slot-table entries are
// recycled through a free list — including the entry's embedded rng,
// reinitialized in place, and its Station object when the protocol
// implements channel.ReusableStation — and per-packet statistics are
// folded at departure into constant-memory streaming accumulators
// (Result.Energy: counts, exact sums, and log-bucketed histograms with
// quantile queries). The engine itself never retains per-packet records:
// Params.Recorder receives every packet's closed record as an
// obs.PacketEvent, so a caller that wants them can stream them out (an
// obs.PacketFunc) or keep them (O(arrivals) memory, its own choice).
// Attaching a recorder changes nothing about how the run executes.
package sim

import (
	"lowsensing/channel"
	"lowsensing/internal/stats"
	"lowsensing/obs"
)

// The engine-facing contracts — the protocol, arrivals, and adversary
// interfaces together with the ternary-feedback vocabulary — are defined in
// the public package lowsensing/channel; the aliases below keep package sim
// source-compatible. See channel's package documentation for the slot-level
// semantics every implementation must follow.
type (
	// Outcome is the ternary channel feedback for one slot.
	Outcome = channel.Outcome
	// Observation is what a station learns at a slot it accessed.
	Observation = channel.Observation
	// Station is the per-packet protocol state machine.
	Station = channel.Station
	// ReusableStation is a Station the engine may recycle via Reset.
	ReusableStation = channel.ReusableStation
	// Windowed is implemented by stations exposing a backoff window.
	Windowed = channel.Windowed
	// StationFactory builds the Station for a newly injected packet.
	StationFactory = channel.StationFactory
	// ArrivalSource produces the (slot, count) arrival schedule.
	ArrivalSource = channel.ArrivalSource
	// Jammer decides which slots the adversary jams.
	Jammer = channel.Jammer
	// ReactiveJammer additionally sees the current slot's senders.
	ReactiveJammer = channel.ReactiveJammer
	// NoJammer is a Jammer that never jams.
	NoJammer = channel.NoJammer
	// Churn is a population-churn process (joins plus leave slots).
	Churn = channel.Churn
	// FaultModel injects sensing corruption and station crashes.
	FaultModel = channel.FaultModel
)

// The three channel outcomes, re-exported from package channel.
const (
	OutcomeEmpty   = channel.OutcomeEmpty
	OutcomeSuccess = channel.OutcomeSuccess
	OutcomeNoisy   = channel.OutcomeNoisy
)

// PacketStats is the engine's per-packet record: obs.PacketEvent, the
// record every Params.Recorder receives, so there is one packet type and
// one Latency (arrival to success inclusive).
type PacketStats = obs.PacketEvent

// DepartureAbandoned is the PacketStats.Departure sentinel of a packet
// that left the system undelivered under churn (Params.Lifetime) — as
// opposed to -1, a survivor still in the system when the run ended.
const DepartureAbandoned = obs.DepartureAbandoned

// EnergyStats holds the streaming per-packet accumulators the engine
// maintains for every run: one Tally (count, exact sum, min/max, second
// moment, log-bucketed histogram) per metric, in constant memory
// regardless of how many packets stream through. Sends, Listens and
// Accesses cover every packet; Latency covers delivered packets only, with
// Undelivered counting the rest.
type EnergyStats struct {
	Sends    stats.Tally
	Listens  stats.Tally
	Accesses stats.Tally
	Latency  stats.Tally
	// Undelivered counts packets still in the system at the end.
	Undelivered int64
	// Abandoned counts packets that left undelivered under churn
	// (PacketStats.Departure == DepartureAbandoned). Their energy is folded
	// like everyone else's; their latency, like survivors', is not.
	Abandoned int64
}

// AddPacket folds one packet's final statistics into the accumulators.
func (e *EnergyStats) AddPacket(p PacketStats) {
	e.Sends.Add(p.Sends)
	e.Listens.Add(p.Listens)
	e.Accesses.Add(p.Sends + p.Listens)
	switch {
	case p.Departure >= 0:
		e.Latency.Add(p.Latency())
	case p.Departure == DepartureAbandoned:
		e.Abandoned++
	default:
		e.Undelivered++
	}
}

// Merge folds another run's accumulators into this one: the result is
// identical to having fed both runs' packets through a single EnergyStats.
// Sweep aggregation uses this to combine replications in constant memory.
func (e *EnergyStats) Merge(o *EnergyStats) {
	e.Sends.Merge(&o.Sends)
	e.Listens.Merge(&o.Listens)
	e.Accesses.Merge(&o.Accesses)
	e.Latency.Merge(&o.Latency)
	e.Undelivered += o.Undelivered
	e.Abandoned += o.Abandoned
}

// Packets returns the number of packets accounted so far.
func (e *EnergyStats) Packets() int64 { return e.Accesses.Count }

// EngineStats is the engine's self-metrics: cheap always-on counters
// (plain increments on paths that already branch) that make the engine's
// own mechanics — scheduler behavior, allocation discipline, memory
// high-water marks — observable without a profiler. They describe how the
// engine ran, not what the protocol did; two engines producing identical
// Results can differ here (and a perf regression shows up here first).
type EngineStats struct {
	// SlotsResolved counts slots the engine actually resolved — slots with
	// at least one channel access. The gap to LastSlot is the work the
	// event-driven design skipped.
	SlotsResolved int64
	// EventsScheduled counts next-access events pushed onto the timing
	// wheel; it equals total channel accesses plus one first-access event
	// per packet.
	EventsScheduled int64
	// WheelCascades counts cursor advances that relocated a higher-level
	// bucket (or pulled in a due overflow region). Each event cascades O(1)
	// amortized times; a blow-up here means pathological scheduling.
	WheelCascades int64
	// HeapOverflows counts events scheduled past the wheel's 2^28-slot
	// horizon into the far-future 4-ary min-heap — huge backoff windows.
	HeapOverflows int64
	// BatchedSlots is always 0: the engine has one slot resolver, and no
	// engine path writes this field. It is kept only because the bench
	// module still reads it.
	BatchedSlots int64
	// StationsBuilt counts Station constructions through Params.NewStation;
	// StationsReused counts packets served by Reset-ing a recycled
	// ReusableStation instead (Params.ReuseStations). In an allocation-free
	// steady state StationsBuilt stays at the peak backlog while
	// StationsReused grows with arrivals.
	StationsBuilt  int64
	StationsReused int64
	// EntriesRecycled counts slot-table entries taken from the free list
	// rather than appended — free-list reuse hits.
	EntriesRecycled int64
	// PeakBacklog is the largest number of packets simultaneously in the
	// system.
	PeakBacklog int64
	// PeakSlotTable is the slot table's high-water entry count — the
	// engine's live-state footprint, which tracks peak backlog rather than
	// total arrivals.
	PeakSlotTable int64
}

// FaultStats summarizes the station faults a run injected
// (Params.Faults). All counters are exact and deterministic per seed.
type FaultStats struct {
	// Corrupted counts observations altered by sensing faults; FalseBusy
	// (Empty sensed as Noisy) and FalseIdle (Noisy sensed as Empty) split
	// it by direction.
	Corrupted int64
	FalseBusy int64
	FalseIdle int64
	// Crashes counts station crash events — each lost the station's whole
	// protocol state — and DownSlots sums the offline slots they imposed.
	Crashes   int64
	DownSlots int64
}

// Merge sums another run's fault counters into this one.
func (f *FaultStats) Merge(o FaultStats) {
	f.Corrupted += o.Corrupted
	f.FalseBusy += o.FalseBusy
	f.FalseIdle += o.FalseIdle
	f.Crashes += o.Crashes
	f.DownSlots += o.DownSlots
}

// Result summarizes a finished run.
type Result struct {
	// Arrived is the number of packets injected (N_t).
	Arrived int64
	// Completed is the number of packets that succeeded (T_t).
	Completed int64
	// Abandoned is the number of packets that left undelivered under churn
	// (Params.Lifetime). Conservation holds on every run:
	// Arrived == Completed + Abandoned + Energy.Undelivered.
	Abandoned int64
	// ActiveSlots is the number of slots with at least one packet in the
	// system (S_t). Inactive slots are ignored, as in the paper.
	ActiveSlots int64
	// JammedSlots is the number of jammed active slots (J_t). Jamming
	// during inactive slots affects nothing in the model and is not
	// counted.
	JammedSlots int64
	// LastSlot is the last slot the engine accounted for.
	LastSlot int64
	// Truncated reports that the run hit MaxSlots with packets still in
	// the system.
	Truncated bool
	// Faults summarizes injected station faults; zero when Params.Faults
	// was nil.
	Faults FaultStats
	// Energy holds the streaming per-packet statistics, always populated
	// by the engine in constant memory.
	Energy EnergyStats
	// Classes holds per-class results of a multi-class run, in class
	// declaration order. The engine itself never populates it — the public
	// Scenario layer fills it (with ClassFairness) when Scenario.Classes is
	// set — but it lives on Result so cluster merging and sweep folding see
	// one type.
	Classes []ClassResult
	// ClassFairness is Jain's fairness index over the classes' delivered
	// fractions; zero when Classes is empty.
	ClassFairness float64
	// Degradation holds per-class deltas against a fault-free baseline
	// run. Only RunWithBaseline-style drivers populate it.
	Degradation []ClassDelta
	// Packets holds per-packet statistics indexed by packet id. The engine
	// never populates it; the public Scenario layer fills it when
	// Scenario.RetainPackets is set (O(arrivals) memory), from the same
	// Recorder stream any caller can observe.
	Packets []PacketStats
	// EngineStats holds the engine's self-metrics, always populated by the
	// engine. It describes engine mechanics, not protocol behavior, and is
	// deliberately excluded from differential-reference comparison.
	EngineStats EngineStats
}

// ClassResult aggregates one workload class of a multi-class run: exact
// conservation counts plus the class's own streaming accumulators
// (energy, latency quantiles), in constant memory per class.
type ClassResult struct {
	// Name is the class's declared name.
	Name string
	// Arrived, Completed, Abandoned, and Survivors partition the class's
	// packets: Arrived == Completed + Abandoned + Survivors.
	Arrived   int64
	Completed int64
	Abandoned int64
	Survivors int64
	// Energy holds the class's streaming per-packet accumulators.
	Energy EnergyStats
}

// DeliveredFrac returns the fraction of the class's arrived packets that
// were delivered (1 if nothing arrived) — the quantity class fairness and
// degradation deltas are computed over.
func (c ClassResult) DeliveredFrac() float64 {
	if c.Arrived == 0 {
		return 1
	}
	return float64(c.Completed) / float64(c.Arrived)
}

// ClassDelta is one class's graceful-degradation report: headline metrics
// of a faulty run next to the same class in the fault-free baseline run
// (same scenario with churn and faults stripped).
type ClassDelta struct {
	// Name is the class's declared name; "" for the implicit single class
	// of a classless scenario.
	Name string
	// DeliveredFrac and BaselineDeliveredFrac are the delivered fractions
	// of the two runs; Delta is their difference (faulty - baseline), so a
	// graceful protocol stays close to 0 from below.
	DeliveredFrac         float64
	BaselineDeliveredFrac float64
	Delta                 float64
	// MeanAccesses and BaselineMeanAccesses compare per-packet energy.
	MeanAccesses         float64
	BaselineMeanAccesses float64
	// MeanLatency and BaselineMeanLatency compare mean delivered latency
	// (0 when the run delivered nothing).
	MeanLatency         float64
	BaselineMeanLatency float64
}

// DegradationVs computes the per-class degradation report of r against a
// fault-free baseline run of the same scenario. Classless results produce
// a single whole-run delta with an empty name. Classes are matched by
// position; a class missing from the baseline (impossible for
// FaultFree-derived baselines, which preserve the class list) contributes
// a delta against zero.
func DegradationVs(r, base Result) []ClassDelta {
	one := func(name string, frac, bfrac, acc, bacc, lat, blat float64) ClassDelta {
		return ClassDelta{
			Name:                  name,
			DeliveredFrac:         frac,
			BaselineDeliveredFrac: bfrac,
			Delta:                 frac - bfrac,
			MeanAccesses:          acc,
			BaselineMeanAccesses:  bacc,
			MeanLatency:           lat,
			BaselineMeanLatency:   blat,
		}
	}
	meanLat := func(e *EnergyStats) float64 {
		if e.Latency.Count == 0 {
			return 0
		}
		return e.Latency.Mean()
	}
	if len(r.Classes) == 0 {
		frac, bfrac := 1.0, 1.0
		if r.Arrived > 0 {
			frac = float64(r.Completed) / float64(r.Arrived)
		}
		if base.Arrived > 0 {
			bfrac = float64(base.Completed) / float64(base.Arrived)
		}
		return []ClassDelta{one("", frac, bfrac,
			r.MeanAccesses(), base.MeanAccesses(),
			meanLat(&r.Energy), meanLat(&base.Energy))}
	}
	out := make([]ClassDelta, len(r.Classes))
	for i := range r.Classes {
		c := &r.Classes[i]
		var b ClassResult
		if i < len(base.Classes) {
			b = base.Classes[i]
		}
		bfrac := 0.0
		if i < len(base.Classes) {
			bfrac = b.DeliveredFrac()
		}
		acc, bacc := 0.0, 0.0
		if n := c.Energy.Accesses.Count; n > 0 {
			acc = float64(c.Energy.Accesses.Sum) / float64(n)
		}
		if n := b.Energy.Accesses.Count; n > 0 {
			bacc = float64(b.Energy.Accesses.Sum) / float64(n)
		}
		out[i] = one(c.Name, c.DeliveredFrac(), bfrac, acc, bacc,
			meanLat(&c.Energy), meanLat(&b.Energy))
	}
	return out
}

// Throughput returns the paper's overall throughput (T+J)/S for the run,
// or 1 if there were no active slots.
func (r Result) Throughput() float64 {
	if r.ActiveSlots == 0 {
		return 1
	}
	return float64(r.Completed+r.JammedSlots) / float64(r.ActiveSlots)
}

// ImplicitThroughput returns (N+J)/S at the end of the run, or 1 if there
// were no active slots. On a completed finite run this equals Throughput.
func (r Result) ImplicitThroughput() float64 {
	if r.ActiveSlots == 0 {
		return 1
	}
	return float64(r.Arrived+r.JammedSlots) / float64(r.ActiveSlots)
}

// MeanAccesses returns the mean number of channel accesses per packet, or
// 0 if no packets arrived. Engine results answer from the streaming
// accumulators; hand-built results fall back to iterating Packets.
func (r Result) MeanAccesses() float64 {
	if n := r.Energy.Accesses.Count; n > 0 {
		return float64(r.Energy.Accesses.Sum) / float64(n)
	}
	if len(r.Packets) == 0 {
		return 0
	}
	var total int64
	for _, p := range r.Packets {
		total += p.Accesses()
	}
	return float64(total) / float64(len(r.Packets))
}

// MaxAccesses returns the largest number of channel accesses made by any
// single packet. Engine results answer from the streaming accumulators;
// hand-built results fall back to iterating Packets.
func (r Result) MaxAccesses() int64 {
	if r.Energy.Accesses.Count > 0 {
		return r.Energy.Accesses.MaxV
	}
	var m int64
	for _, p := range r.Packets {
		if a := p.Accesses(); a > m {
			m = a
		}
	}
	return m
}
