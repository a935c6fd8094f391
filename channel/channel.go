// Package channel defines the engine-facing contracts of the slotted
// multiple-access channel model of Bender, Fineman, Gilbert, Kuszmaul, and
// Young (PODC 2024), §1.1: synchronized slots, ternary feedback
// (empty / success / noisy), adversarial packet arrivals, and adversarial
// jamming.
//
// These are the extension points of the lowsensing module. A contention-
// resolution protocol is a Station implementation, an arrival process is an
// ArrivalSource, and an adversary is a Jammer (or ReactiveJammer); anything
// implementing them — inside this module or out — runs on the same engine,
// metrics, and experiment harness as the paper's algorithm. Register
// implementations with lowsensing.RegisterProtocol, RegisterArrivals, and
// RegisterJammer to make them resolvable from declarative Scenario and
// SweepSpec JSON, CLI flags, and sweeps, exactly like the built-ins.
//
// # Slot-level semantics
//
// Time is divided into synchronized slots 0, 1, 2, ... Packets arrive
// adversarially (ArrivalSource), each running its own protocol instance
// (Station). In every slot each live packet either sends, listens, or
// sleeps; a slot in which it sends or listens is a channel access and costs
// one unit of energy. The channel resolves each slot to one of three
// outcomes: OutcomeSuccess iff exactly one packet sent and the slot was not
// jammed (that packet then leaves the system), OutcomeEmpty iff nobody sent
// and the slot was not jammed, and OutcomeNoisy otherwise — two or more
// senders, or any jamming. Only accessing packets observe the outcome.
//
// All randomness must come from the *prng.Source values handed to the
// implementation, never from global or wall-clock entropy: a run is
// required to be a deterministic function of its seed, which is what makes
// scenarios reproducible, sweeps order-independent, and the differential
// reference engine bit-exact.
package channel

import "lowsensing/prng"

// Outcome is the ternary channel feedback for one slot.
type Outcome uint8

// The three channel outcomes of the ternary-feedback model. A jammed slot
// is always Noisy regardless of how many packets sent.
const (
	// OutcomeEmpty means no packet sent and the slot was not jammed.
	OutcomeEmpty Outcome = iota + 1
	// OutcomeSuccess means exactly one packet sent in an unjammed slot.
	OutcomeSuccess
	// OutcomeNoisy means two or more packets sent, or the slot was jammed.
	OutcomeNoisy
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeEmpty:
		return "empty"
	case OutcomeSuccess:
		return "success"
	case OutcomeNoisy:
		return "noisy"
	default:
		return "unknown"
	}
}

// Observation is what a station learns at a slot in which it accessed the
// channel. Sent reports whether the station itself transmitted; Succeeded
// reports whether that transmission was the slot's unique unjammed send.
// A station that sent and did not succeed knows the slot was Noisy without
// listening (paper footnote 2).
type Observation struct {
	Slot      int64
	Outcome   Outcome
	Sent      bool
	Succeeded bool
}

// Station is the per-packet protocol state machine — the protocol contract.
// The engine drives it with the following two-step loop:
//
//  1. ScheduleNext(from, rng) returns the first slot >= from at which the
//     station will access the channel, and whether that access includes a
//     transmission (send=false means listen only). The station must commit
//     to this decision: it will not be consulted again until that slot, and
//     the engine is free to skip the slots in between entirely (that skip
//     is what makes large-window protocols cost O(accesses), not O(slots)).
//  2. At that slot the engine resolves the channel and calls Observe with
//     the ternary feedback. If the station succeeded it is removed;
//     otherwise ScheduleNext is called again with from = slot+1.
//
// Station implementations must be deterministic given the rng stream: all
// randomness must be drawn from the rng argument (the same per-packet
// stream is passed to every call), and no state may depend on anything but
// prior calls. Each packet gets an independent stream, so adding a packet
// never perturbs another packet's draws. Implementations must not retain
// the *prng.Source (or any engine-provided pointer) across calls: the
// engine owns the stream's storage and may relocate it between calls as
// its internal tables grow. Always draw from the argument. This rule is
// machine-enforced: the rngretain analyzer (go run ./cmd/lsbvet ./...)
// flags any function that stores a per-call *prng.Source parameter into a
// field, global, or closure, returns it, or takes its address.
type Station interface {
	ScheduleNext(from int64, rng *prng.Source) (slot int64, send bool)
	Observe(obs Observation)
}

// ReusableStation is an optional extension of Station for protocols whose
// per-packet objects can be recycled. When recycling is enabled — the
// engine's driver opts in per run, and the public Scenario layer does so
// exactly when the protocol comes from a registered kind — a departing
// station implementing it stays attached to its recycled slot-table entry
// and is Reset for the entry's next packet instead of being rebuilt
// through the StationFactory, making the steady-state packet lifecycle
// allocation-free. All built-in protocols implement it. A custom factory
// instance (WithStations) is never recycled: a closure may legally hand
// out differently-configured stations per packet id, which recycling
// could not honor.
//
// Reset must leave the station in exactly the state a fresh StationFactory
// call would produce for a packet with this id — including any draws the
// factory would take from rng, and any side effects it would have on state
// shared between stations — because runs with and without recycling are
// required to be bit-identical. A registered kind whose factory cannot
// satisfy this (its output varies per packet beyond what Reset restores)
// must return stations that do not implement ReusableStation.
type ReusableStation interface {
	Station
	// Reset returns the station to its just-constructed state for a new
	// packet with the given id; rng is the new packet's private stream.
	Reset(id int64, rng *prng.Source)
}

// Windowed is implemented by stations that expose a backoff window, which
// bound recorders use to compute contention and the paper's potential
// function.
type Windowed interface {
	Window() float64
}

// StationFactory builds the Station for a newly injected packet. The id is
// the packet's global index in arrival order (0-based); rng is the packet's
// private deterministic stream (the same one later passed to ScheduleNext).
// Like stations, factories must not retain the rng pointer: the engine owns
// its storage. The rngretain analyzer enforces this for factories exactly
// as it does for Station methods — the pointer may be drawn from and
// passed onward, never kept.
//
// A factory, and the stations it builds, serve one goroutine at a time:
// one engine, or one cluster's serially stepped channels. Stations of one
// factory may share mutable state (LOW-SENSING BACKOFF packets share a
// window memo), so runs that execute concurrently each need their own
// factory.
type StationFactory func(id int64, rng *prng.Source) Station

// ArrivalSource produces the (slot, count) arrival schedule — the arrivals
// contract. Next returns batches in nondecreasing slot order with count > 0,
// and ok=false when the schedule is exhausted. Batches may share a slot:
// every batch at slot t is injected before t resolves, so their packets
// contend in t together. Next is called once per batch, after the previous
// batch has been injected; adaptive sources may consult engine state at
// that point (history up to, not including, the previous batch's slot).
// Sources are consumed as they run: a fresh source must be constructed per
// run.
type ArrivalSource interface {
	Next() (slot int64, count int64, ok bool)
}

// Jammer decides which slots the adversary jams — the adversary contract.
//
// Jammed is called for slots the engine actually resolves (some station
// accesses the channel) and must be a deterministic function of the slot
// and the jammer's own state. CountRange accounts for jammed slots inside
// a skipped active range [from, to) that no station observed;
// implementations may sample the count from the correct distribution
// rather than materialize per-slot decisions, because those slots are
// unobservable by everyone.
//
// Within one busy period the engine consults the jammer in nondecreasing
// slot order and covers every active slot exactly once (CountRange over the
// gaps, Jammed at resolved slots), so stateful jammers — budgets, Markov
// channels — may advance sequentially. Slots in which no packet is live are
// never consulted: jamming an idle channel affects nothing in the model.
type Jammer interface {
	Jammed(slot int64) bool
	CountRange(from, to int64) int64
}

// ReactiveJammer is a Jammer that additionally sees, and may react to, the
// set of packets transmitting in the current slot before the channel is
// resolved (paper §1.3). The engine calls JammedReactive instead of Jammed
// for resolved slots; CountRange still covers unobserved slots.
type ReactiveJammer interface {
	Jammer
	JammedReactive(slot int64, senders []int64) bool
}

// RangeJammer is an optional extension of Jammer for pure jammers — those
// whose Jammed and CountRange are functions of their arguments alone, with
// no internal state advanced by being queried (a fixed interval; not
// budgeted-random or adaptive jammers, whose answers depend on the query
// history).
//
// NextJammedInRange returns the first jammed slot in [from, to) and whether
// one exists. It must agree exactly with Jammed — the returned slot is
// min{s in [from, to) : Jammed(s)} — and, being pure, may be called (or
// skipped) freely without perturbing the jammer.
//
// No engine path reads it: the engine resolves every slot through Jammed,
// JammedReactive and CountRange. jamming.Interval is its only
// implementation; the interface is kept only because the bench module
// forwards and asserts it.
type RangeJammer interface {
	Jammer
	NextJammedInRange(from, to int64) (slot int64, ok bool)
}

// Churn is a population-churn process — the churn contract. It adds flows
// that join mid-run and removes packets that give up before delivery,
// modeling dynamic populations (flash crowds, epoch renewals, Poisson
// join/leave).
//
// Joins returns the extra arrival stream the churn process injects on top
// of the scenario's base arrivals, or nil when the process only removes
// packets. Like any ArrivalSource it is consumed as it runs, so a Churn
// value backs exactly one run.
//
// LeaveSlot returns the slot at which the packet abandons the system if it
// is still undelivered: the packet behaves normally through slot
// LeaveSlot-1 and never accesses a slot >= LeaveSlot. A negative return
// means the packet never leaves. LeaveSlot must be a pure function of
// (id, arrival) and construction-time parameters — never of call order or
// engine state — so that cluster execution and single-engine runs
// see identical lifetimes. It must return either a negative value or a
// slot strictly greater than arrival: a packet lives at least through its
// arrival slot.
//
// An abandoned packet's energy spent is kept, its unfinished work is
// reported as Abandoned (distinct from end-of-run survivors), and its
// PacketStats carry the DepartureAbandoned sentinel.
type Churn interface {
	Joins() ArrivalSource
	LeaveSlot(id, arrival int64) int64
}

// FaultModel injects station faults — the fault contract. The engine
// consults it on the observe path, after the channel outcome is resolved
// and only for stations that did not succeed, so delivery accounting stays
// truthful: faults can distort what a station believes and when it acts,
// never whether a packet was in fact delivered.
//
// Corrupt may replace the outcome a listening station observes (sensing
// faults: false-busy turns Empty into Noisy, false-idle turns Noisy into
// Empty). It is consulted only for listen-only accesses at Empty or Noisy
// slots — a sender that failed knows the slot was Noisy without sensing
// (paper footnote 2), and Success observations are ack-level, not
// carrier-level.
//
// Crash reports whether the station crashes at this access and how many
// additional slots it stays down. A crashed station loses all protocol
// state and re-enters cold — the restart-on-churn baseline — rescheduling
// from slot+1+down; the crashed access's energy is still charged, and the
// observation it would have received is lost.
//
// All randomness must be drawn from the rng argument: the engine passes a
// dedicated fault stream (independent of every station stream) and calls
// the model in deterministic per-slot, per-station id order, so the same
// seed yields bit-identical fault trajectories at any worker count.
// Implementations must be stateless apart from construction-time
// parameters — one FaultModel value may serve many runs and channels
// concurrently — and must not retain the *prng.Source.
type FaultModel interface {
	Corrupt(id, slot int64, o Outcome, rng *prng.Source) Outcome
	Crash(id, slot int64, rng *prng.Source) (down int64, crashed bool)
}

// NoJammer is a Jammer that never jams. The zero value is ready to use.
type NoJammer struct{}

// Jammed always reports false.
func (NoJammer) Jammed(int64) bool { return false }

// CountRange always returns 0.
func (NoJammer) CountRange(int64, int64) int64 { return 0 }
