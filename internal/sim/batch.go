package sim

import (
	"math"
)

// Batch slot resolution: the fast path for provably uncontended runs.
//
// The general resolver pays, per channel access, a wheel pop, a wheel push,
// a scratch-buffer fill, and up to two jammer interface calls — machinery
// that exists to order concurrent accessors and observe arrivals, none of
// which can occur when exactly one station owns every upcoming slot. That
// is the common shape of this simulator's workloads: LOW-SENSING BACKOFF
// spends most of a run with stations spread thinly across huge backoff
// windows, and the last packet of every busy period drains alone.
//
// resolveRun proves a run of slots uncontended and hands it to runStation,
// which drives the station's Observe/ScheduleNext loop directly — the
// station's own geometric skip sampling (internal/dist) advances time, the
// wheel is bypassed entirely, and with a pure RangeJammer the jammer
// collapses to one NextJammedInRange query per stretch of clean slots.
//
// # The proof obligation
//
// A run [t, limit] is uncontended when every actor that could touch a slot
// in it is accounted for:
//
//   - other stations: every other pending event is > limit (the wheel probe
//     below), and new stations only enter through arrivals;
//   - arrivals: the pending arrival batch (the source's next, already
//     peeked) is > limit, and sources yield batches in nondecreasing slot
//     order;
//   - the jammer: consulted with exactly the general resolver's call
//     sequence, or replaced by pure bulk queries it contracts to agree
//     with (channel.RangeJammer).
//
// Within the run, then, resolved slots are exactly the one station's access
// slots, each with one accessor — outcome Empty/Success/Noisy by the
// station's send flag and the jam decision alone.
//
// # Bit-identical equivalence
//
// The fast path replays the general resolver's observable effects exactly:
// the station sees the same Observation and ScheduleNext calls with the
// same rng stream, stateful jammers see the same CountRange/Jammed sequence
// (pure RangeJammers are call-order free by contract), busy-period, jam,
// and energy accounting advance identically, the engine's public read
// surface (CurrentSlot, Last*, Backlog, ...) is maintained per slot so
// engine-bound adversaries and recorders cannot tell the difference, and
// the Recorder receives the same SlotEvent/PacketEvent stream in the same
// order (each slot's event after its departure). EngineStats agree on
// everything semantic (SlotsResolved, EventsScheduled, lifecycle counters);
// only the wheel-mechanics counters (WheelCascades, HeapOverflows) and
// BatchedSlots itself can differ. The batching on/off property test pins
// all of this down for every registered protocol × jammer × arrival kind.
//
// The path declines to engage (Engine.batchOK) when the jammer is reactive
// (it must see every slot's sender set), when churn or faults add per-slot
// effects, or when Params.DisableBatching asks for the general resolver.

// resolveRun resolves slot t — which has at least one pending event — and,
// when t's accessor turns out to be alone with nothing else pending nearby,
// the whole uncontended run it heads. Falls back to resolveSlot for
// contended slots.
//
//lsbvet:hotpath
func (e *Engine) resolveRun(t int64) {
	// The run can extend at most to the slot before the pending arrival,
	// never past MaxSlots, and — in stepped execution — never to the
	// current step limit, whose slot belongs to a later epoch.
	limit := e.params.MaxSlots
	if e.pendOK && e.pendSlot-1 < limit {
		limit = e.pendSlot - 1
	}
	if e.stepLimit-1 < limit {
		limit = e.stepLimit - 1
	}
	if limit < t {
		// A further arrival batch is pending at t itself; the general
		// resolver handles the slot.
		e.resolveRecorded(t)
		return
	}
	ev, ok := e.events.popAtMost(t)
	if !ok {
		noEventPanic(t)
	}
	// Peek at the wheel for the next pending event after the one popped. A
	// hit at t means a second accessor shares the slot — contended, so the
	// event goes back (a mechanical re-insertion, not a new schedule) and
	// the general resolver takes over. A later hit caps the run; a miss
	// proves everything else pending is past limit.
	if s2, ok2 := e.events.nextAtMost(limit); ok2 {
		if s2 == t {
			e.events.Push(ev)
			e.events.pushes--
			e.resolveRecorded(t)
			return
		}
		limit = s2 - 1
	}
	e.runStation(ev.idx, t, limit)
}

// runStation resolves the uncontended run [t, limit] owned by the station
// at slot-table entry idx, whose pending access is at t. It returns with
// the engine exactly as the general resolver would have left it: either the
// station departed, or its next access is past limit and re-enters the
// wheel.
//
//lsbvet:hotpath
func (e *Engine) runStation(idx int32, t, limit int64) {
	ss := &e.stations[idx]
	jam := e.jammer
	// nextJam memoizes the pure jammer's next jammed slot at or after
	// jamCursor: -1 = not yet queried, MaxInt64 = none through limit. With
	// no jamming in range the whole run costs one bulk query.
	nextJam := int64(-1)
	if e.rangeJam == nil {
		nextJam = math.MinInt64 // fallback: exact per-slot call replay
	}
	for {
		e.curSlot = t
		e.stats.SlotsResolved++
		e.stats.BatchedSlots++

		// Jam accounting. The fallback path replays the general resolver's
		// exact call sequence — stateful jammers (budgeted random, Markov)
		// advance identically. The RangeJammer path substitutes pure bulk
		// queries: CountRange only when the memo says the gap contains a
		// jam, Jammed never.
		var jammed bool
		if nextJam == math.MinInt64 {
			if t > e.jamCursor {
				e.jammedSlots += jam.CountRange(e.jamCursor, t)
			}
			jammed = jam.Jammed(t)
		} else {
			if nextJam < e.jamCursor {
				nextJam = math.MaxInt64
				if s, ok := e.rangeJam.NextJammedInRange(e.jamCursor, limit+1); ok {
					nextJam = s
				}
			}
			if nextJam < t {
				// The skipped gap [jamCursor, t) contains jams; count them
				// exactly and re-aim the memo at this slot.
				e.jammedSlots += jam.CountRange(e.jamCursor, t)
				nextJam = math.MaxInt64
				if s, ok := e.rangeJam.NextJammedInRange(t, limit+1); ok {
					nextJam = s
				}
			}
			if nextJam == t {
				jammed = true
				nextJam = -1 // consumed; re-query from jamCursor next slot
			}
		}
		if jammed {
			e.jammedSlots++
		}
		e.jamCursor = t + 1

		// One accessor: the slot is Noisy under jamming, Success on an
		// unjammed send, Empty on an unjammed listen.
		var outcome Outcome
		sent := ss.willSend
		switch {
		case jammed:
			outcome = OutcomeNoisy
		case sent:
			outcome = OutcomeSuccess
		default:
			outcome = OutcomeEmpty
		}
		e.lastOutcome = outcome
		e.lastJammed = jammed
		e.lastAccessors = 1
		if sent {
			e.lastSenders = 1
			if ss.sends == 0 {
				ss.firstSend = t
			}
			ss.sends++
		} else {
			e.lastSenders = 0
			ss.listens++
		}
		succeeded := sent && outcome == OutcomeSuccess
		observeStation(ss, Observation{Slot: t, Outcome: outcome, Sent: sent, Succeeded: succeeded})
		if succeeded {
			e.depart(idx, t)
			e.completed++
			e.activeCount--
			if e.activeCount == 0 {
				e.closedActive += t - e.busyStart + 1
				e.busy = false
			}
			e.recordSlot()
			return
		}
		next, send := scheduleStation(ss, t+1, &ss.rng)
		if next <= t {
			reschedPanic(ss.id, next, t)
		}
		ss.nextSlot = next
		ss.willSend = send
		e.recordSlot()
		if next > limit {
			// The run is over; the station's event re-enters the wheel and
			// the main loop resumes. Push counts this schedule.
			e.events.Push(event{slot: next, id: ss.id, idx: idx})
			return
		}
		// The schedule stayed inside the run: the wheel never sees the
		// event, but it is an EventsScheduled all the same.
		e.events.pushes++
		t = next
	}
}
