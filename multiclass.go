package lowsensing

import (
	"fmt"
	"sort"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/sim"
	"lowsensing/internal/stats"
	"lowsensing/prng"
)

// Multi-class execution: every class's arrival stream (plus its churn's
// join stream) is merged into one deterministic source, and because the
// engine assigns packet ids densely in injection order, the merge emission
// order is the id order — so a compact tape of (firstID, class) runs,
// appended as batches are emitted and binary-searched at dispatch time,
// maps any packet id to its class. Protocol factories, churn lifetimes,
// fault models, and the per-class accounting all dispatch through that
// tape; the engine itself stays class-blind.

// classSeedSalt derives per-class component seeds from the scenario seed.
const classSeedSalt = 0x636c6173 // "clas"

// classSeed derives the seed class i's components (arrival source, churn
// joins, patience draws) are constructed with. Classes get distinct,
// Mix64-separated seeds so merging a new class never perturbs another
// class's streams.
func classSeed(seed uint64, i int) uint64 {
	return prng.Mix64(seed ^ (classSeedSalt + uint64(i)*0x9e3779b97f4a7c15))
}

type tapeRun struct {
	firstID int64
	class   int
}

// multiclassRun wires one multi-class scenario into engine params.
type multiclassRun struct {
	tape      []tapeRun
	total     int64
	factories []StationFactory
	churns    []Churn
	models    []FaultModel
	anyChurn  bool
	anyFault  bool
	source    *arrivals.Merge
	acc       []sim.ClassResult
}

// newMulticlassRun builds the merged source and per-class dispatch state
// for one run. Components are constructed fresh (sources and churn are
// single-use), so it is called per Run.
func newMulticlassRun(sc Scenario) (*multiclassRun, error) {
	if len(sc.Classes) == 0 {
		return nil, fmt.Errorf("lowsensing: multiclass run with no classes")
	}
	m := &multiclassRun{
		factories: make([]StationFactory, len(sc.Classes)),
		churns:    make([]Churn, len(sc.Classes)),
		models:    make([]FaultModel, len(sc.Classes)),
		acc:       make([]sim.ClassResult, len(sc.Classes)),
	}
	var srcs []ArrivalSource
	var srcClass []int
	for i, cl := range sc.Classes {
		seed := classSeed(sc.Seed, i)
		base, err := cl.Arrivals.Source(seed)
		if err != nil {
			return nil, fmt.Errorf("lowsensing: class %q: %w", cl.Name, err)
		}
		srcs = append(srcs, base)
		srcClass = append(srcClass, i)
		ch, err := cl.Churn.Churn(seed)
		if err != nil {
			return nil, fmt.Errorf("lowsensing: class %q: %w", cl.Name, err)
		}
		if ch != nil {
			m.churns[i] = ch
			m.anyChurn = true
			if joins := ch.Joins(); joins != nil {
				srcs = append(srcs, joins)
				srcClass = append(srcClass, i)
			}
		}
		model, err := cl.Faults.Model()
		if err != nil {
			return nil, fmt.Errorf("lowsensing: class %q: %w", cl.Name, err)
		}
		if model != nil {
			m.models[i] = model
			m.anyFault = true
		}
		factory, err := cl.Protocol.Factory()
		if err != nil {
			return nil, fmt.Errorf("lowsensing: class %q: %w", cl.Name, err)
		}
		m.factories[i] = factory
		m.acc[i] = sim.ClassResult{Name: cl.Name}
	}
	m.source = arrivals.NewMerge(srcs...)
	// The engine peeks a batch (advancing the merge, firing OnEmit) before
	// injecting it, so by the time any id is dispatched its tape run exists.
	m.source.OnEmit = func(src int, _, count int64) {
		c := srcClass[src]
		if n := len(m.tape); n == 0 || m.tape[n-1].class != c {
			m.tape = append(m.tape, tapeRun{firstID: m.total, class: c})
		}
		m.total += count
	}
	return m, nil
}

// classOf maps a packet id to its class index via the tape.
func (m *multiclassRun) classOf(id int64) int {
	i := sort.Search(len(m.tape), func(i int) bool { return m.tape[i].firstID > id }) - 1
	return m.tape[i].class
}

// factory returns the class-dispatching station factory.
func (m *multiclassRun) factory() StationFactory {
	return func(id int64, rng *prng.Source) Station {
		return m.factories[m.classOf(id)](id, rng)
	}
}

// lifetime returns the class-dispatching leave-slot function, or nil when
// no class has churn (keeping the engine's churn-free path engaged).
func (m *multiclassRun) lifetime() func(id, arrival int64) int64 {
	if !m.anyChurn {
		return nil
	}
	return func(id, arrival int64) int64 {
		if ch := m.churns[m.classOf(id)]; ch != nil {
			return ch.LeaveSlot(id, arrival)
		}
		return -1
	}
}

// faults returns the class-dispatching fault model, or nil when no class
// has faults.
func (m *multiclassRun) faults() FaultModel {
	if !m.anyFault {
		return nil
	}
	return classFaults{m}
}

// classFaults dispatches fault calls to the packet's class model; classes
// without faults draw nothing, so the fault stream's position stays a
// deterministic function of the scenario.
type classFaults struct{ m *multiclassRun }

func (c classFaults) Corrupt(id, slot int64, o Outcome, rng *prng.Source) Outcome {
	if model := c.m.models[c.m.classOf(id)]; model != nil {
		return model.Corrupt(id, slot, o, rng)
	}
	return o
}

func (c classFaults) Crash(id, slot int64, rng *prng.Source) (int64, bool) {
	if model := c.m.models[c.m.classOf(id)]; model != nil {
		return model.Crash(id, slot, rng)
	}
	return 0, false
}

// RecordPacket makes the run its own per-class accounting recorder. Every
// packet reaches it exactly once — delivered, abandoned, or flushed as a
// survivor — so the per-class conservation identity Arrived = Completed +
// Abandoned + Survivors holds by construction.
func (m *multiclassRun) RecordPacket(p PacketEvent) {
	cr := &m.acc[m.classOf(p.ID)]
	cr.Arrived++
	switch {
	case p.Departure >= 0:
		cr.Completed++
	case p.Departure == DepartureAbandoned:
		cr.Abandoned++
	default:
		cr.Survivors++
	}
	cr.Energy.AddPacket(p)
}

// RecordSlot implements Recorder; class accounting is per packet.
func (m *multiclassRun) RecordSlot(SlotEvent) {}

// finalize attaches the per-class results and the cross-class Jain fairness
// index (over delivered fractions) to a finished run's Result.
func (m *multiclassRun) finalize(res *Result) {
	res.Classes = m.acc
	fracs := make([]float64, len(m.acc))
	for i, cr := range m.acc {
		fracs[i] = cr.DeliveredFrac()
	}
	res.ClassFairness = stats.Jain(fracs)
}
