// Package simref is a deliberately naive reference implementation of the
// slotted-channel model: it walks every slot one by one, with no event heap
// and no idle-slot skipping. It exists purely to differentially test the
// optimized engine in package sim.
//
// The two engines share the Station contract, consume station RNG streams
// in exactly the same order (stations are processed in id order within a
// slot), make identical jam-accounting calls (the same CountRange
// arguments in the same order), and fold packets into the streaming
// accumulators in the same order (churn abandons before departures within
// a slot, each in id order; survivors in id order at the end), so for
// identical Params they must produce bit-identical Results — including
// Result.Energy down to the floating-point second moments — a much
// stronger check than statistical agreement. Churn (Params.Lifetime) and
// station faults (Params.Faults, drawing the same dedicated stream in the
// same per-slot id order) are mirrored call for call, and Params.Recorder
// receives the engine's exact event stream: a SlotEvent per resolved slot
// and every packet's PacketEvent (FirstSend and LeftAt included), in the
// engine's order. Cost is O(MaxSlots × stations); use small instances.
package simref

import (
	"fmt"

	"lowsensing/internal/sim"
	"lowsensing/obs"
	"lowsensing/prng"
)

// Run executes the model slot by slot and returns a result identical to
// sim.Engine.Run on the same Params. MaxSlots must be positive.
func Run(p sim.Params) (sim.Result, error) {
	if p.Arrivals == nil {
		return sim.Result{}, fmt.Errorf("simref: Params.Arrivals is required")
	}
	if p.NewStation == nil {
		return sim.Result{}, fmt.Errorf("simref: Params.NewStation is required")
	}
	if p.MaxSlots <= 0 {
		return sim.Result{}, fmt.Errorf("simref: Params.MaxSlots must be positive (naive engine walks every slot)")
	}
	jammer := p.Jammer
	if jammer == nil {
		jammer = sim.NoJammer{}
	}
	react, _ := jammer.(sim.ReactiveJammer)
	if b, ok := jammer.(sim.EngineBound); ok {
		// Reference runs cannot serve engine-bound adversaries: there is
		// no engine to observe. Reject loudly rather than run a silently
		// different adversary.
		_ = b
		return sim.Result{}, fmt.Errorf("simref: engine-bound jammers are not supported")
	}
	if _, ok := p.Arrivals.(sim.EngineBound); ok {
		return sim.Result{}, fmt.Errorf("simref: engine-bound arrival sources are not supported")
	}

	type st struct {
		station   sim.Station
		rng       *prng.Source
		arrival   int64
		depart    int64
		firstSend int64 // -1 until the packet's first transmission
		sends     int64
		listens   int64
		nextSlot  int64
		leaveAt   int64 // churn leave slot; -1 means the packet never leaves
		willSend  bool
		active    bool
	}
	var stations []*st

	// The fault model draws from the engine's dedicated stream (sim's
	// faultStream constant, "flts"), independent of every station stream;
	// prng.NewStream and Source.Reinit produce identical streams per the
	// prng contract, so the draws match the engine's bit for bit.
	var faultRng *prng.Source
	if p.Faults != nil {
		faultRng = prng.NewStream(p.Seed, 0x666c7473)
	}

	pendSlot, pendCount, pendOK := p.Arrivals.Next()

	res := sim.Result{}
	finish := func(id int64, s *st) {
		ps := sim.PacketStats{
			ID: id, Arrival: s.arrival, FirstSend: s.firstSend, Departure: s.depart,
			LeftAt: -1, Sends: s.sends, Listens: s.listens,
		}
		if s.depart == sim.DepartureAbandoned {
			ps.LeftAt = s.leaveAt
		}
		res.Energy.AddPacket(ps)
		if p.Recorder != nil {
			p.Recorder.RecordPacket(ps)
		}
	}
	active := int64(0)
	busy := false
	var busyStart, jamCursor, lastWorked int64
	lastWorked = -1

	for slot := int64(0); slot <= p.MaxSlots; slot++ {
		// Inject arrivals due at this slot (mirrors the engine: arrivals
		// first, so new packets can act immediately).
		injected := false
		for pendOK && pendSlot == slot {
			injected = pendCount > 0 || injected
			for i := int64(0); i < pendCount; i++ {
				id := int64(len(stations))
				rng := prng.NewStream(p.Seed, uint64(id)+1)
				station := p.NewStation(id, rng)
				next, send := station.ScheduleNext(slot, rng)
				if next < slot {
					panic("simref: station scheduled in the past")
				}
				leaveAt := int64(-1)
				if p.Lifetime != nil {
					leaveAt = p.Lifetime(id, slot)
					if leaveAt >= 0 && leaveAt <= slot {
						panic("simref: packet got leave slot not after its arrival")
					}
				}
				stations = append(stations, &st{
					station: station, rng: rng, arrival: slot, depart: -1, firstSend: -1,
					nextSlot: next, leaveAt: leaveAt, willSend: send, active: true,
				})
				if active == 0 {
					busy, busyStart, jamCursor = true, slot, slot
				}
				active++
			}
			pendSlot, pendCount, pendOK = p.Arrivals.Next()
			if pendOK && pendSlot < slot {
				panic("simref: arrival source went backwards")
			}
		}
		if injected {
			lastWorked = slot
		}
		if active == 0 {
			if !pendOK {
				break
			}
			continue
		}

		// Churn abandons first, in id order — the engine folds every abandon
		// popped at slot t before any of t's departures. A station's due slot
		// is min(nextSlot, leaveAt), so the abandon fires exactly at leaveAt.
		abandonedHere := false
		if p.Lifetime != nil {
			for id, s := range stations {
				if s.active && s.leaveAt == slot {
					s.active = false
					s.depart = sim.DepartureAbandoned
					finish(int64(id), s)
					res.Abandoned++
					active--
					abandonedHere = true
				}
			}
			if abandonedHere {
				lastWorked = slot
			}
		}

		// Who acts this slot? (id order, matching the engine's heap.)
		var accessors []*st
		var accessorIDs []int64
		var senders []int64
		for id, s := range stations {
			if s.active && s.nextSlot == slot {
				accessors = append(accessors, s)
				accessorIDs = append(accessorIDs, int64(id))
				if s.willSend {
					senders = append(senders, int64(id))
				}
			}
		}
		if len(accessors) == 0 {
			// Abandon-only slot: the leavers were live through slot-1, so if
			// they closed the busy period it ends there — slot-busyStart
			// active slots, unobserved jams over [jamCursor, slot) — exactly
			// the engine's abandon-only accounting. Otherwise the slot is an
			// unobserved active slot; jams are accounted lazily below.
			if abandonedHere && active == 0 && busy {
				if slot > jamCursor {
					res.JammedSlots += jammer.CountRange(jamCursor, slot)
				}
				jamCursor = slot
				res.ActiveSlots += slot - busyStart
				busy = false
			}
			continue
		}
		lastWorked = slot

		// Jam accounting with the engine's exact call pattern.
		if busy && slot > jamCursor {
			res.JammedSlots += jammer.CountRange(jamCursor, slot)
		}
		var jammed bool
		if react != nil {
			jammed = react.JammedReactive(slot, senders)
		} else {
			jammed = jammer.Jammed(slot)
		}
		if jammed {
			res.JammedSlots++
		}
		jamCursor = slot + 1

		var outcome sim.Outcome
		switch {
		case jammed:
			outcome = sim.OutcomeNoisy
		case len(senders) == 0:
			outcome = sim.OutcomeEmpty
		case len(senders) == 1:
			outcome = sim.OutcomeSuccess
		default:
			outcome = sim.OutcomeNoisy
		}

		for ai, s := range accessors {
			sent := s.willSend
			succeeded := sent && outcome == sim.OutcomeSuccess
			if sent {
				if s.sends == 0 {
					s.firstSend = slot
				}
				s.sends++
			} else {
				s.listens++
			}
			if p.Faults != nil && !succeeded {
				// Fault injection on the dedicated stream in accessor (id)
				// order, mirroring the engine: sensing corruption for
				// listen-only accesses at Empty/Noisy slots, then the crash
				// decision for every non-succeeded accessor.
				oo := outcome
				if !sent && outcome != sim.OutcomeSuccess {
					oo = p.Faults.Corrupt(accessorIDs[ai], slot, outcome, faultRng)
					if oo != outcome {
						res.Faults.Corrupted++
						if outcome == sim.OutcomeEmpty && oo == sim.OutcomeNoisy {
							res.Faults.FalseBusy++
						} else if outcome == sim.OutcomeNoisy && oo == sim.OutcomeEmpty {
							res.Faults.FalseIdle++
						}
					}
				}
				if down, crashed := p.Faults.Crash(accessorIDs[ai], slot, faultRng); crashed {
					// The station loses all protocol state and re-enters cold,
					// continuing its own rng stream, rescheduled from
					// slot+1+down; the lost observation is never delivered.
					res.Faults.Crashes++
					res.Faults.DownSlots += down
					s.station = p.NewStation(accessorIDs[ai], s.rng)
					if down < 0 {
						down = 0
					}
					from := slot + 1 + down
					next, send := s.station.ScheduleNext(from, s.rng)
					if next < from {
						panic("simref: crashed station scheduled in the past")
					}
					s.nextSlot, s.willSend = next, send
					continue
				}
				s.station.Observe(sim.Observation{Slot: slot, Outcome: oo, Sent: sent, Succeeded: false})
			} else {
				s.station.Observe(sim.Observation{Slot: slot, Outcome: outcome, Sent: sent, Succeeded: succeeded})
			}
			if succeeded {
				s.active = false
				s.depart = slot
				finish(accessorIDs[ai], s)
				res.Completed++
				active--
				continue
			}
			next, send := s.station.ScheduleNext(slot+1, s.rng)
			if next <= slot {
				panic("simref: station rescheduled in the past")
			}
			s.nextSlot, s.willSend = next, send
		}
		if active == 0 && busy {
			res.ActiveSlots += slot - busyStart + 1
			busy = false
		}
		if p.Recorder != nil {
			p.Recorder.RecordSlot(obs.SlotEvent{
				Slot: slot, Outcome: outcome, Jammed: jammed,
				Senders: len(senders), Accessors: len(accessors), Backlog: active,
			})
		}
	}

	if busy {
		// The open busy period extends through MaxSlots (packets were live in
		// every slot of the tail, even past the last access), matching the
		// engine's truncation accounting call for call.
		res.Truncated = true
		res.ActiveSlots += p.MaxSlots - busyStart + 1
		if p.MaxSlots+1 > jamCursor {
			res.JammedSlots += jammer.CountRange(jamCursor, p.MaxSlots+1)
		}
	}
	res.Arrived = int64(len(stations))
	if lastWorked >= 0 {
		res.LastSlot = lastWorked
	}
	// Flush survivors in id order, mirroring the engine's end-of-run walk
	// of its live list.
	for id, s := range stations {
		if s.active {
			finish(int64(id), s)
		}
	}
	return res, nil
}
