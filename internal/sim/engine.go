package sim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"lowsensing/channel"
	"lowsensing/obs"
	"lowsensing/prng"
)

// Params configures a simulation run. Arrivals and NewStation are required;
// a nil Jammer means no jamming. MaxSlots bounds the run (0 means the
// default cap); a run that still has packets at MaxSlots is truncated, not
// an error, so experiments can measure steady state on infinite streams.
type Params struct {
	Seed uint64
	// Arrivals is the arrival schedule. Only Run draws from it: an engine
	// driven through the stepped API (StepTo/InjectAt/FinishRun) injects
	// exactly what InjectAt hands it and never calls Next.
	Arrivals   ArrivalSource
	Jammer     Jammer
	NewStation StationFactory
	MaxSlots   int64
	// Recorder, if non-nil, is the run's one observer. It receives an
	// obs.SlotEvent after every resolved slot and an obs.PacketEvent for
	// every packet — delivered packets at departure in departure order,
	// packets abandoned by churn at their leave slot with Departure =
	// DepartureAbandoned, undelivered packets at the end of the run in
	// arrival order with Departure = -1. The packet events of packets
	// departing (or abandoning) at slot t precede t's slot event.
	// Attaching a recorder never changes how the run executes; a recorder
	// that also implements EngineBound may read the engine's accessors
	// from inside its callbacks once bound. A nil Recorder costs one
	// predictable branch per slot and keeps the hot path allocation-free.
	Recorder obs.Recorder
	// Lifetime, if non-nil, assigns every packet a churn leave slot at
	// injection: a packet with Lifetime(id, arrival) = L behaves normally
	// through slot L-1 and, if still undelivered, abandons the system
	// before acting in slot L (negative = never leaves). The function must
	// be pure in (id, arrival) — see channel.Churn.LeaveSlot — and must
	// return either a negative value or a slot strictly after arrival.
	// Abandoned packets keep their energy spent, carry Departure =
	// DepartureAbandoned, and are counted in Result.Abandoned; a nil
	// Lifetime costs one predictable branch per event.
	Lifetime func(id, arrival int64) int64
	// Faults, if non-nil, injects station faults on the observe path: it
	// may corrupt the outcome a listening station senses and may crash a
	// station, which then loses all protocol state and re-enters cold (see
	// channel.FaultModel). The model draws from a dedicated engine-owned
	// prng stream, independent of every station stream, so fault
	// trajectories are bit-identical per seed. A nil Faults costs one
	// predictable branch per accessor.
	Faults channel.FaultModel
	// ReuseStations opts into station recycling: when a departed packet's
	// Station implements ReusableStation, the object stays attached to its
	// recycled slot-table entry and is Reset for the entry's next packet
	// instead of being rebuilt through NewStation, making the steady-state
	// lifecycle allocation-free. Leave it false (the default) when
	// NewStation's output varies per packet id or call — e.g. a closure
	// handing out differently-configured stations — because recycling
	// consults the factory only for an entry's first packet. The public
	// Scenario layer enables it exactly when the protocol comes from a
	// registered kind, whose factories are constructed from pure spec data
	// and produce uniformly-configured stations.
	ReuseStations bool
}

// DefaultMaxSlots is the safety cap applied when Params.MaxSlots is zero.
const DefaultMaxSlots = int64(1) << 40

// faultStream is the stream index of the engine's dedicated fault-model
// rng (station packets use streams id+1).
const faultStream = 0x666c7473 // "flts"

// Engine runs the slotted-channel simulation. Construct with NewEngine and
// drive with Run; an Engine is single-use and not safe for concurrent use.
//
// Live state is O(backlog): departed packets' slot-table entries are
// recycled through a free list, their statistics folded into streaming
// accumulators (and handed to Params.Recorder, if set) at departure.
type Engine struct {
	params Params
	jammer Jammer
	react  ReactiveJammer // non-nil if jammer is reactive

	// stations is the slot table of live packets. Entries of departed
	// packets are recycled via freeList, so len(stations) tracks the peak
	// backlog, not the arrival count. Live entries form a doubly-linked
	// list (liveHead/liveTail, prevLive/nextLive) in packet-id order: new
	// ids only ever append at the tail, and removals keep order.
	//
	// The recycling is deep: an entry's embedded rng is reinitialized in
	// place for its next packet, and if the departed packet's Station
	// implements ReusableStation it stays attached to the entry (ss.reuse)
	// and is Reset instead of reconstructed — so in steady state a packet's
	// whole lifecycle allocates nothing.
	stations []stationState
	freeList []int32
	liveHead int32
	liveTail int32
	nextID   int64 // packets injected so far; the next packet's id

	events timingWheel

	// block holds the wheel's bucket headers and the streaming per-packet
	// statistics (always on); nil once resultInto has returned it to the pool.
	block *engineBlock

	// Busy-period accounting.
	activeCount  int64
	busy         bool
	busyStart    int64
	jamCursor    int64
	closedActive int64 // active slots in closed busy periods
	jammedSlots  int64
	completed    int64
	curSlot      int64

	// Fault-injection and churn state. faultRng is the dedicated stream
	// Params.Faults draws from — independent of every station stream, and
	// advanced in deterministic per-slot, per-station id order.
	faultRng   prng.Source
	abandoned  int64
	faultStats FaultStats

	// Scratch buffers reused across slots. They start on the block's
	// fixed-size arrays, so a slot with up to slotScratch accessors
	// allocates nothing even on an engine's first slots.
	slotStations []int32
	slotSenders  []int64

	// Last resolved slot, for recorders and adaptive adversaries.
	lastOutcome   Outcome
	lastSenders   int
	lastAccessors int
	lastJammed    bool

	// Self-metrics; wheel-level counters live in events and are folded in
	// by resultInto.
	stats EngineStats

	// Stepped-execution state (StepTo/InjectAt/FinishRun). stepFloor is
	// the highest limit stepped to so far; injections may not land before
	// it.
	stepping  bool
	stepFloor int64

	ran bool
}

// stationState is one slot-table entry. The rng is embedded by value and
// reinitialized in place per packet (prng.Source.Reinit), so the per-packet
// stream costs no allocation; stations receive &ss.rng on every call and
// must not retain it (the table's backing array moves as the backlog
// grows). reuse survives recycling: it holds the entry's last Station if
// that station can be Reset for the next packet.
type stationState struct {
	rng       prng.Source
	st        Station
	reuse     ReusableStation
	id        int64
	arrival   int64
	sends     int64
	listens   int64
	firstSend int64 // slot of the packet's first transmission; -1 if none yet
	leaveAt   int64 // churn leave slot; -1 means the packet never leaves
	prevLive  int32
	nextLive  int32
	willSend  bool
}

// NewEngine validates params and builds an engine. It returns an error if
// Arrivals or NewStation is missing or MaxSlots is negative.
func NewEngine(p Params) (*Engine, error) {
	if p.Arrivals == nil {
		return nil, fmt.Errorf("sim: Params.Arrivals is required")
	}
	if p.NewStation == nil {
		return nil, fmt.Errorf("sim: Params.NewStation is required")
	}
	if p.MaxSlots < 0 {
		return nil, fmt.Errorf("sim: Params.MaxSlots must be >= 0, got %d", p.MaxSlots)
	}
	if p.MaxSlots == 0 {
		p.MaxSlots = DefaultMaxSlots
	}
	e := &Engine{params: p, jammer: p.Jammer, liveHead: -1, liveTail: -1}
	e.attach(blockPool.Get().(*engineBlock))
	if e.jammer == nil {
		e.jammer = NoJammer{}
	}
	if rj, ok := e.jammer.(ReactiveJammer); ok {
		e.react = rj
	}
	if p.Faults != nil {
		e.faultRng.Reinit(p.Seed, faultStream)
	}
	// Adaptive adversary components receive a handle to the engine so they
	// can observe public history (backlog, counts) when making decisions.
	if b, ok := e.jammer.(EngineBound); ok {
		b.Bind(e)
	}
	if b, ok := p.Arrivals.(EngineBound); ok {
		b.Bind(e)
	}
	return e, nil
}

// EngineBound is implemented by components that read the observable state
// of the system: adaptive adversaries (arrival sources, jammers), which the
// engine binds itself in NewEngine, and the one recorder sampling engine
// state (metrics.Collector), which whoever attaches it binds before the
// run starts. Bind is called once; bound components must
// use only the engine's read accessors.
type EngineBound interface {
	Bind(e *Engine)
}

// Run executes the simulation to completion (arrivals exhausted and all
// packets delivered) or until MaxSlots, and returns the result. It is
// RunInto on a fresh Result.
func (e *Engine) Run() (Result, error) {
	var r Result
	err := e.RunInto(&r)
	return r, err
}

// RunInto is Run writing the result into *r, which it overwrites in full:
// no field of a previous result survives, so a caller can run job after
// job into one reused Result (the sweep runner's ring slots) and never
// copy the ~16 KB value. On error *r is left untouched. RunInto may be
// called once, and not on an engine driven through the stepped API
// (StepTo/InjectAt/FinishRun).
//
// Run is the stepped API driven by Params.Arrivals: it draws a batch,
// resolves every slot before the batch's slot, injects the batch, and only
// then draws the next one. Every batch at slot t is therefore injected
// before t resolves, however many batches share it.
func (e *Engine) RunInto(r *Result) error {
	if e.ran {
		return fmt.Errorf("sim: Engine.Run called twice")
	}
	if e.stepping {
		return fmt.Errorf("sim: Engine.Run mixed with stepped API (StepTo/InjectAt)")
	}
	e.ran = true
	last := int64(math.MinInt64)
	for {
		// The source may consult an engine View here (adaptive arrivals):
		// history reflects slots before the last injected batch's slot.
		t, count, ok := e.params.Arrivals.Next()
		if !ok || t > e.params.MaxSlots {
			break
		}
		if t < last {
			arrivalsBackPanic(t, last)
		}
		last = t
		e.advance(t)
		e.injectBatch(t, count)
	}
	e.advance(math.MaxInt64)
	e.resultInto(r)
	return nil
}

// advance is the one scheduler loop, shared by Run, StepTo and FinishRun:
// it resolves every slot strictly below limit (and never past MaxSlots)
// that some station accesses, handing each resolved slot to the recorder
// after the slot's departures. Each slot is found once: advance pops its
// first event and resolveSlot pops the rest. A false resolveSlot means
// every due event was a churn abandon: no station accessed the channel,
// so there is no slot to record.
func (e *Engine) advance(limit int64) {
	bound := min(limit-1, e.params.MaxSlots)
	for {
		ev, ok := e.events.popAtMost(bound)
		if !ok {
			return
		}
		e.curSlot = ev.slot
		if e.resolveSlot(ev) && e.params.Recorder != nil {
			e.params.Recorder.RecordSlot(e.LastSlotEvent())
		}
	}
}

// --- stepped execution ---
//
// The stepped API drives an engine in externally-clocked epochs, so a
// coordinator (the cluster package) can interleave many engines under one
// shared clock: StepTo(s) resolves everything before slot s, InjectAt(s, n)
// then adds arrivals at s, and FinishRun drains the remainder. Only Run
// draws from Params.Arrivals; a stepped engine injects exactly what
// InjectAt hands it and never consults the source. Run is itself this API
// driven by the source, so a stepped run is bit-identical to Run over a
// source yielding the same (slot, count) batches.

// beginStep enters stepped mode.
func (e *Engine) beginStep() error {
	if e.ran {
		return fmt.Errorf("sim: stepped call after run finished")
	}
	e.stepping = true
	return nil
}

// StepTo resolves every slot strictly before limit. Limits must be
// nondecreasing across calls; a limit at or below a previous one is a no-op.
func (e *Engine) StepTo(limit int64) error {
	if err := e.beginStep(); err != nil {
		return err
	}
	if limit <= e.stepFloor {
		return nil
	}
	e.advance(limit)
	e.stepFloor = limit
	return nil
}

// InjectAt adds count packet arrivals at slot t, which must be at or after
// every slot already stepped past. Call StepTo(t) first so the injected
// packets see exactly the history a slot-t arrival would have seen.
func (e *Engine) InjectAt(t, count int64) error {
	if err := e.beginStep(); err != nil {
		return err
	}
	if count <= 0 {
		return fmt.Errorf("sim: InjectAt count must be > 0, got %d", count)
	}
	if t < e.stepFloor {
		return fmt.Errorf("sim: InjectAt(%d) behind step floor %d", t, e.stepFloor)
	}
	if t > e.params.MaxSlots {
		return fmt.Errorf("sim: InjectAt(%d) past MaxSlots %d", t, e.params.MaxSlots)
	}
	e.injectBatch(t, count)
	return nil
}

// FinishRun resolves everything still pending and returns the result,
// ending a stepped run. It may be called once.
func (e *Engine) FinishRun() (Result, error) {
	if err := e.beginStep(); err != nil {
		return Result{}, err
	}
	e.ran = true
	e.advance(math.MaxInt64)
	var r Result
	e.resultInto(&r)
	return r, nil
}

// injectBatch constructs count stations arriving at slot t, for Run and
// InjectAt alike. The steady-state path allocates nothing: the packet's
// slot-table entry comes off the free list, its rng stream is reinitialized
// in place, and a recycled ReusableStation is Reset instead of
// reconstructed. It marks t as the current slot even if nothing resolves
// there (adaptive components read it).
//
//lsbvet:hotpath
func (e *Engine) injectBatch(t, count int64) {
	e.curSlot = t
	if need := count - int64(len(e.freeList)); need > 0 {
		// Grow the slot table once for the packets the free list cannot
		// seat, rather than letting append grow it step by step, and tell
		// the wheel the table's new length so its node array, if it needs
		// one, grows to match in one step too. The free list, never longer
		// than the table, is reserved with it so retire never grows it.
		e.stations = slices.Grow(e.stations, int(need))
		n := len(e.stations) + int(need)
		e.events.nodeHint = n
		e.freeList = slices.Grow(e.freeList, n-len(e.freeList))
	}
	for i := int64(0); i < count; i++ {
		id := e.nextID
		e.nextID++
		var idx int32
		if n := len(e.freeList); n > 0 {
			idx = e.freeList[n-1]
			e.freeList = e.freeList[:n-1]
			e.stats.EntriesRecycled++
		} else {
			idx = int32(len(e.stations))
			e.stations = append(e.stations, stationState{})
		}
		ss := &e.stations[idx]
		ss.rng.Reinit(e.params.Seed, uint64(id)+1)
		if ss.reuse != nil {
			ss.st = ss.reuse
			ss.reuse.Reset(id, &ss.rng)
			e.stats.StationsReused++
		} else {
			ss.st = e.params.NewStation(id, &ss.rng)
			e.stats.StationsBuilt++
		}
		leaveAt := int64(-1)
		if e.params.Lifetime != nil {
			leaveAt = e.params.Lifetime(id, t)
			if leaveAt >= 0 && leaveAt <= t {
				leaveBehindPanic(id, leaveAt, t)
			}
		}
		ss.id = id
		ss.arrival = t
		ss.sends = 0
		ss.listens = 0
		ss.firstSend = -1
		ss.leaveAt = leaveAt
		ss.prevLive = e.liveTail
		ss.nextLive = -1
		if e.liveTail >= 0 {
			e.stations[e.liveTail].nextLive = idx
		} else {
			e.liveHead = idx
		}
		e.liveTail = idx
		e.schedule(ss, idx, t)
		if e.activeCount == 0 {
			e.busy = true
			e.busyStart = t
			e.jamCursor = t
		}
		e.activeCount++
		if e.activeCount > e.stats.PeakBacklog {
			e.stats.PeakBacklog = e.activeCount
		}
	}
}

// resolveSlot pops every station due at slot t = first.slot, starting
// from first, the slot's already-popped first event — separating churn
// abandons (processed first, in id order) from channel accessors —
// resolves the channel, delivers observations (possibly corrupted or lost
// to faults), and reschedules survivors. It reports whether the slot was
// actually resolved: false means every due event was an abandon, no
// station accessed the channel, and neither the jammer nor any per-slot
// observer saw the slot.
//
//lsbvet:hotpath
func (e *Engine) resolveSlot(first event) bool {
	t := first.slot
	e.slotStations = e.slotStations[:0]
	e.slotSenders = e.slotSenders[:0]
	for ev, ok := first, true; ok; ev, ok = e.events.popAtMost(t) {
		if ss := &e.stations[ev.idx]; ss.leaveAt >= 0 && t >= ss.leaveAt {
			// A churn abandon: a departure's lifecycle, minus the delivery.
			e.abandoned++
			e.activeCount--
			e.retire(ev.idx, DepartureAbandoned, ss.leaveAt)
			continue
		}
		e.slotStations = append(e.slotStations, ev.idx)
		if e.stations[ev.idx].willSend {
			e.slotSenders = append(e.slotSenders, ev.id)
		}
	}
	if len(e.slotStations) == 0 {
		// Abandon-only slot. The leavers were live through slot t-1, so if
		// they closed the busy period it ends there: t-busyStart active
		// slots, and the unobserved jams run over [jamCursor, t).
		if e.activeCount == 0 && e.busy {
			if t > e.jamCursor {
				e.jammedSlots += e.jammer.CountRange(e.jamCursor, t)
			}
			e.jamCursor = t
			e.closedActive += t - e.busyStart
			e.busy = false
		}
		return false
	}
	e.stats.SlotsResolved++

	// Account jamming over the skipped active range (jamCursor, t).
	if e.busy && t > e.jamCursor {
		e.jammedSlots += e.jammer.CountRange(e.jamCursor, t)
	}
	var jammed bool
	if e.react != nil {
		jammed = e.react.JammedReactive(t, e.slotSenders)
	} else {
		jammed = e.jammer.Jammed(t)
	}
	if jammed {
		e.jammedSlots++
	}
	e.jamCursor = t + 1

	var outcome Outcome
	switch {
	case jammed:
		outcome = OutcomeNoisy
	case len(e.slotSenders) == 0:
		outcome = OutcomeEmpty
	case len(e.slotSenders) == 1:
		outcome = OutcomeSuccess
	default:
		outcome = OutcomeNoisy
	}
	e.lastOutcome = outcome
	e.lastSenders = len(e.slotSenders)
	e.lastAccessors = len(e.slotStations)
	e.lastJammed = jammed

	for _, idx := range e.slotStations {
		ss := &e.stations[idx]
		sent := ss.willSend
		succeeded := sent && outcome == OutcomeSuccess
		if sent {
			if ss.sends == 0 {
				ss.firstSend = t
			}
			ss.sends++
		} else {
			ss.listens++
		}
		if e.params.Faults != nil && !succeeded {
			// Fault injection, on the engine's dedicated stream in accessor
			// (id) order: sensing corruption first (listen-only accesses at
			// Empty/Noisy slots), then the crash decision. Delivery stays
			// truthful — succeeded accesses are never consulted.
			oo := outcome
			if !sent && outcome != OutcomeSuccess {
				oo = e.params.Faults.Corrupt(ss.id, t, outcome, &e.faultRng)
				if oo != outcome {
					e.faultStats.Corrupted++
					if outcome == OutcomeEmpty && oo == OutcomeNoisy {
						e.faultStats.FalseBusy++
					} else if outcome == OutcomeNoisy && oo == OutcomeEmpty {
						e.faultStats.FalseIdle++
					}
				}
			}
			if down, crashed := e.params.Faults.Crash(ss.id, t, &e.faultRng); crashed {
				e.faultStats.Crashes++
				e.faultStats.DownSlots += down
				e.crashStation(idx, t, down)
				continue
			}
			ss.st.Observe(Observation{Slot: t, Outcome: oo, Sent: sent, Succeeded: false})
		} else {
			ss.st.Observe(Observation{Slot: t, Outcome: outcome, Sent: sent, Succeeded: succeeded})
		}
		if succeeded {
			e.retire(idx, t, -1)
			e.completed++
			e.activeCount--
			continue
		}
		e.schedule(ss, idx, t+1)
	}

	if e.activeCount == 0 && e.busy {
		e.closedActive += t - e.busyStart + 1
		e.busy = false
	}
	return true
}

// crashStation rebuilds a crashed station cold — it loses every bit of
// protocol state, continuing its own rng stream (a reinit would replay the
// original draws and re-derive the schedule it already ran) — and
// reschedules its first fresh access from slot t+1+down.
func (e *Engine) crashStation(idx int32, t, down int64) {
	ss := &e.stations[idx]
	if rs, ok := ss.st.(ReusableStation); ok && e.params.ReuseStations {
		rs.Reset(ss.id, &ss.rng)
		e.stats.StationsReused++
	} else {
		ss.st = e.params.NewStation(ss.id, &ss.rng)
		e.stats.StationsBuilt++
	}
	if down < 0 {
		down = 0
	}
	e.schedule(ss, idx, t+1+down)
}

// schedule draws the next access of the station in entry idx, at or after
// slot from, records whether it sends, and pushes its event — capped at
// the churn leave slot, where the station is woken to abandon instead of
// to act. It is the engine's one call to ScheduleNext: injection,
// rescheduling after an observation and restart after a crash all come
// through here.
//
//lsbvet:hotpath
func (e *Engine) schedule(ss *stationState, idx int32, from int64) {
	next, send := ss.st.ScheduleNext(from, &ss.rng)
	if next < from {
		schedBehindPanic(ss.id, next, from)
	}
	ss.willSend = send
	if ss.leaveAt >= 0 && ss.leaveAt < next {
		next = ss.leaveAt
	}
	e.events.Push(event{slot: next, id: ss.id, idx: idx})
}

// retire finalizes a packet leaving the system — departure is its delivery
// slot or DepartureAbandoned, leftAt its churn abandon slot (-1 otherwise):
// folds its statistics into the accumulators (and the recorder), unlinks it
// from the live list, and recycles its slot-table entry.
//
//lsbvet:hotpath
func (e *Engine) retire(idx int32, departure, leftAt int64) {
	ss := &e.stations[idx]
	e.finishPacket(ss, departure, leftAt)
	if ss.prevLive >= 0 {
		e.stations[ss.prevLive].nextLive = ss.nextLive
	} else {
		e.liveHead = ss.nextLive
	}
	if ss.nextLive >= 0 {
		e.stations[ss.nextLive].prevLive = ss.prevLive
	} else {
		e.liveTail = ss.prevLive
	}
	// Recycle the entry. With ReuseStations on, a ReusableStation stays
	// attached so the entry's next packet can Reset it instead of
	// allocating; anything else is dropped for collection. The embedded
	// rng needs no clearing — it is reinitialized in place on reuse.
	var reuse ReusableStation
	if e.params.ReuseStations {
		reuse, _ = ss.st.(ReusableStation)
	}
	*ss = stationState{reuse: reuse}
	e.freeList = append(e.freeList, idx)
}

// finishPacket closes the lifecycle of the packet in ss — departure is its
// delivery slot, DepartureAbandoned, or -1 for a survivor, and leftAt the
// churn abandon slot (-1 otherwise) — folding its record into the
// accumulators and handing it to the recorder.
func (e *Engine) finishPacket(ss *stationState, departure, leftAt int64) {
	p := PacketStats{
		ID:        ss.id,
		Arrival:   ss.arrival,
		FirstSend: ss.firstSend,
		Departure: departure,
		LeftAt:    leftAt,
		Sends:     ss.sends,
		Listens:   ss.listens,
	}
	e.block.energy.AddPacket(p)
	if e.params.Recorder != nil {
		e.params.Recorder.RecordPacket(p)
	}
}

// resultInto writes the finished run's Result into *r and returns the
// engine's block to the pool. It assigns every field of *r, each once and
// in place: r may be a slot still holding a previous job's Result, and a
// composite-literal assignment through a pointer would build the ~16 KB
// value in a temporary and copy it.
func (e *Engine) resultInto(r *Result) {
	r.Arrived = e.nextID
	r.Completed = e.completed
	r.Abandoned = e.abandoned
	r.ActiveSlots = e.closedActive
	r.JammedSlots = e.jammedSlots
	r.LastSlot = e.curSlot
	r.Truncated = e.busy
	r.Faults = e.faultStats
	if e.busy {
		// Truncated: count the open busy period and its unobserved jams. The
		// period extends through MaxSlots — every slot in it had live packets
		// even though the last access (curSlot) may be well before the cap —
		// so the tail (curSlot, MaxSlots] is active and its jams were
		// observed by no one, exactly like any other skipped range.
		end := e.params.MaxSlots
		r.ActiveSlots += end - e.busyStart + 1
		if end+1 > e.jamCursor {
			r.JammedSlots += e.jammer.CountRange(e.jamCursor, end+1)
		}
	}
	// Flush packets still in the system (arrival order via the live list):
	// their energy counts, their latency does not (they never departed).
	for idx := e.liveHead; idx >= 0; {
		ss := &e.stations[idx]
		next := ss.nextLive
		e.finishPacket(ss, -1, -1)
		idx = next
	}
	r.Energy = e.block.energy
	// The layers above the engine fill these after the run (Packets stays
	// nil); clearing them keeps a reused slot from showing a previous run's.
	r.Classes = nil
	r.ClassFairness = 0
	r.Degradation = nil
	r.PerChannel, r.Routed, r.ChannelFairness = nil, nil, 0
	r.Packets = nil
	r.EngineStats = e.Stats()
	e.release()
}

// slotScratch is the per-slot accessor (and same-slot event) count the
// engine's scratch buffers hold before they grow onto the heap.
const slotScratch = 64

// engineBlock is the engine's fixed-size state: the timing wheel's bucket
// headers (~38KB), the streaming energy accumulators (~16KB) and the
// per-slot scratch arrays (the slot's accessors, and the wheel's drain of
// same-slot events). It is recycled through blockPool so that the
// thousands of short runs of a sweep do not each allocate and zero 55KB.
// Reuse is bit-identical: attach zeroes the accumulators, a recycled wheel
// header is never read before the new wheel's (empty) occupancy bitmaps
// say it was written, and the scratch arrays are overwritten slot by slot
// before they are read.
type engineBlock struct {
	heads     wheelHeads
	energy    EnergyStats
	stations  [slotScratch]int32
	senders   [slotScratch]int64
	drainKeys [slotScratch]uint64
}

var blockPool = sync.Pool{New: func() any { return new(engineBlock) }}

// attach gives the engine blk, before anything is scheduled or folded.
func (e *Engine) attach(blk *engineBlock) {
	blk.energy = EnergyStats{}
	e.block = blk
	e.events.wheelHeads = &blk.heads
	e.slotStations = blk.stations[:0]
	e.slotSenders = blk.senders[:0]
	e.events.drainKeys = blk.drainKeys[:0]
}

// release returns the engine's block to the pool. resultInto calls it last,
// once Result holds its own copy of Energy; Stats reads only per-engine
// counters, so it keeps working on a finished engine.
func (e *Engine) release() {
	blk := e.block
	e.block = nil
	e.events.wheelHeads = nil
	e.slotStations, e.slotSenders = nil, nil
	e.events.drainKeys = nil
	blockPool.Put(blk)
}

// --- read accessors for bound recorders and adaptive adversaries ---

// Backlog returns the number of packets currently in the system.
func (e *Engine) Backlog() int64 { return e.activeCount }

// Arrived returns the number of packets injected so far.
func (e *Engine) Arrived() int64 { return e.nextID }

// Completed returns the number of packets delivered so far.
func (e *Engine) Completed() int64 { return e.completed }

// JammedSoFar returns the number of jammed active slots accounted so far.
func (e *Engine) JammedSoFar() int64 { return e.jammedSlots }

// CurrentSlot returns the slot the engine most recently worked on.
func (e *Engine) CurrentSlot() int64 { return e.curSlot }

// ActiveSlotsSoFar returns S_t as of the current slot, counting the open
// busy period if one is in progress.
func (e *Engine) ActiveSlotsSoFar() int64 {
	s := e.closedActive
	if e.busy {
		s += e.curSlot - e.busyStart + 1
	}
	return s
}

// ImplicitThroughputNow returns (N_t + J_t) / S_t at the current slot, or 1
// if there have been no active slots yet.
func (e *Engine) ImplicitThroughputNow() float64 {
	s := e.ActiveSlotsSoFar()
	if s == 0 {
		return 1
	}
	return float64(e.Arrived()+e.jammedSlots) / float64(s)
}

// LastOutcome returns the outcome of the most recently resolved slot; only
// meaningful inside a recorder's RecordSlot.
func (e *Engine) LastOutcome() Outcome { return e.lastOutcome }

// LastSlotEvent returns the most recently resolved slot as a structured
// obs.SlotEvent — the same view a Params.Recorder receives. Only
// meaningful inside a recorder's RecordSlot (or after at least one
// resolved slot).
func (e *Engine) LastSlotEvent() obs.SlotEvent {
	return obs.SlotEvent{
		Slot:      e.curSlot,
		Outcome:   e.lastOutcome,
		Jammed:    e.lastJammed,
		Senders:   e.lastSenders,
		Accessors: e.lastAccessors,
		Backlog:   e.activeCount,
	}
}

// Stats returns a snapshot of the engine's self-metrics so far. The
// wheel-level counters are folded in at snapshot time; Result.EngineStats
// is the end-of-run snapshot.
func (e *Engine) Stats() EngineStats {
	s := e.stats
	s.EventsScheduled = e.events.pushes
	s.WheelCascades = e.events.cascades
	s.PeakSlotTable = int64(len(e.stations))
	return s
}

// VisitActiveWindows calls fn with the window of every active station that
// exposes one, in arrival order. It is intended for bound recorders
// computing contention or the paper's potential function; cost is linear
// in the current backlog (departed stations are recycled, not scanned).
func (e *Engine) VisitActiveWindows(fn func(w float64)) {
	for idx := e.liveHead; idx >= 0; idx = e.stations[idx].nextLive {
		if w, ok := e.stations[idx].st.(Windowed); ok {
			fn(w.Window())
		}
	}
}

// Cold panic helpers. The resolvers above are //lsbvet:hotpath: fmt's
// formatting machinery must stay out of their bodies (and out of their
// inlining budget), so invariant-violation panics are built here, behind
// //go:noinline, exactly like the timing wheel's pushPanic.

//go:noinline
func schedBehindPanic(id, next, t int64) {
	panic(fmt.Sprintf("sim: station %d scheduled slot %d before current slot %d", id, next, t))
}

//go:noinline
func arrivalsBackPanic(next, t int64) {
	panic(fmt.Sprintf("sim: arrival source went backwards: %d after %d", next, t))
}

//go:noinline
func leaveBehindPanic(id, leaveAt, t int64) {
	panic(fmt.Sprintf("sim: packet %d got leave slot %d not after its arrival %d", id, leaveAt, t))
}
