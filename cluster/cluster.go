// Package cluster runs C independent slotted channels under one shared
// clock, with a pluggable Router deciding which channel each arriving
// packet joins — the multi-channel analogue of a single lowsensing run,
// and the reproduction's bridge from the paper's one-channel model
// (Bender, Fineman, Gilbert, Kuszmaul, and Young, PODC 2024) to
// production-shaped questions: does LOW-SENSING BACKOFF's energy advantage
// survive load balancing, and is contention or fragmentation the failure
// mode at scale?
//
// # Model
//
// All channels share the global slot clock and the global arrival stream.
// When the stream delivers a batch of packets at slot s, the router
// assigns each packet (in arrival order) to one channel; the packet then
// runs the channel's own protocol/jammer dynamics, which never interact
// with other channels. Run steps every channel to each arrival slot before
// routing it, so any router may read exact live backlogs. An epoch leaves
// a few events of work — less than a cross-goroutine barrier costs — so
// the channels are stepped serially on the calling goroutine, and a
// cluster run gets its parallelism across runs (sweeps, the runner).
//
// # Determinism
//
// A cluster run is a pure function of its Config: the router is consulted
// once per packet in global arrival order from a single goroutine, each
// channel draws from its own derived prng stream (ChannelSeed), and
// results are merged by channel index. Reruns are byte-identical, and so
// is everything an attached recorder sees.
//
// The public entry points are the lowsensing root package's Scenario with
// Channels >= 1 (declarative, registry-resolved) and this package's Run
// (programmatic); both return one merged Result carrying the per-channel
// breakdown. A recorder observes a cluster as it does one channel, and
// sees every event labeled with its channel. Register new router kinds
// with lowsensing.RegisterRouter.
package cluster

import (
	"fmt"

	"lowsensing/channel"
	"lowsensing/internal/sim"
	"lowsensing/internal/stats"
	"lowsensing/obs"
	"lowsensing/prng"
)

// View is the router's read-only window onto the cluster at the moment of
// a routing decision. Backlog reports live packets currently in channel
// ch, read from the channel's engine after it has resolved every slot
// before the arrival. Routed reports packets assigned to ch so far. Both
// include earlier packets of the current batch, and every router may read
// both.
type View interface {
	Channels() int
	Backlog(ch int) int64
	Routed(ch int) int64
}

// Router decides which channel each arriving packet joins. Route is
// called once per packet, in global arrival order, from a single
// goroutine — id is the packet's global arrival index, slot its arrival
// slot — and must return a channel in [0, v.Channels()). Routers may be
// stateful (counters, rng streams) and are single-use: construct a fresh
// router per run. All randomness must come from a prng stream seeded at
// construction, never from global entropy.
type Router interface {
	Route(id, slot int64, v View) int
	// NeedsBacklog declares whether Route reads v.Backlog.
	//
	// Deprecated: Run ignores it; every router runs on the one executor
	// and may read v.Backlog.
	NeedsBacklog() bool
}

// Config parameterizes one cluster run. Channels, Arrivals, Router, and
// NewStation are required; per-channel components are built through the
// New* hooks so every channel gets independently seeded state.
type Config struct {
	// Channels is C, the number of slotted channels. Must be >= 1.
	Channels int
	// Seed is the run's base seed. Each channel derives its own stream
	// via ChannelSeed; the router's seed is the caller's business
	// (RouterSpec derives one from the scenario seed).
	Seed uint64
	// MaxSlots bounds every channel's run (0 means the engine default).
	MaxSlots int64
	// Arrivals is the global arrival stream, consumed once on the
	// coordinating goroutine. Arrivals after MaxSlots are dropped,
	// exactly as a single-channel engine would drop them.
	Arrivals channel.ArrivalSource
	// Router assigns each packet to a channel. Single-use.
	Router Router
	// NewStation builds stations, shared by all channels; per-packet rng
	// streams are already channel-derived, so one factory serves all. It
	// must hand out uniformly-configured stations: every channel recycles
	// stations (sim.Params.ReuseStations), so the factory is consulted
	// only for a slot-table entry's first packet and a ReusableStation is
	// Reset for every later one.
	NewStation channel.StationFactory
	// NewJammer, if non-nil, builds channel ch's jammer from the
	// channel's derived seed. Jammers are stateful; never share one
	// instance across channels.
	NewJammer func(ch int, seed uint64) (channel.Jammer, error)
	// Recorder, if non-nil, observes every channel: it receives each
	// channel's events with Channel set to the channel index, interleaved
	// in epoch order (obs.ByChannel splits the stream back into one per
	// channel). Run never flushes it; that is the caller's job, as on a
	// single channel.
	Recorder obs.Recorder
	// Lifetime, if non-nil, gives packets finite patience (population
	// churn): it is consulted at injection with the packet's
	// channel-local id and arrival slot, exactly as sim.Params.Lifetime —
	// ids are per-channel, so an id-keyed lifetime law draws per
	// (channel, local id).
	Lifetime func(id, arrival int64) int64
	// Faults, if non-nil, injects station faults on every channel (see
	// sim.Params.Faults). Fault models are stateless, so one value safely
	// serves all channels; each channel draws from its own derived fault
	// stream.
	Faults channel.FaultModel
}

// ChannelSeed derives channel ch's engine seed from the cluster base
// seed, in the same SplitMix64-chain style as runner.DeriveSeed, under a
// cluster-specific domain constant so channel streams collide with
// neither sweep-job seeds nor each other.
func ChannelSeed(base uint64, ch int) uint64 {
	h := prng.Mix64(base ^ 0x6c73622d636c6368) // "lsb-clch"
	return prng.Mix64(h ^ uint64(ch))
}

// merge folds the per-channel results and routing tally into the
// cluster's Result (see Run).
func merge(per []sim.Result, routed []int64) sim.Result {
	r := sim.Result{PerChannel: per, Routed: routed}
	for i := range per {
		cr := &per[i]
		r.Arrived += cr.Arrived
		r.Completed += cr.Completed
		r.Abandoned += cr.Abandoned
		r.ActiveSlots += cr.ActiveSlots
		r.JammedSlots += cr.JammedSlots
		r.Faults.Merge(cr.Faults)
		if cr.LastSlot > r.LastSlot {
			r.LastSlot = cr.LastSlot
		}
		if cr.Truncated {
			r.Truncated = true
		}
		r.Energy.Merge(&cr.Energy)
		s := &r.EngineStats
		s.SlotsResolved += cr.EngineStats.SlotsResolved
		s.EventsScheduled += cr.EngineStats.EventsScheduled
		s.WheelCascades += cr.EngineStats.WheelCascades
		s.StationsBuilt += cr.EngineStats.StationsBuilt
		s.StationsReused += cr.EngineStats.StationsReused
		s.EntriesRecycled += cr.EngineStats.EntriesRecycled
		s.PeakBacklog += cr.EngineStats.PeakBacklog
		s.PeakSlotTable += cr.EngineStats.PeakSlotTable
	}
	// A stack buffer keeps the recorder-off cluster path's per-run
	// allocation footprint fixed up to 64 channels.
	var buf [64]float64
	completed := buf[:0]
	for i := range per {
		completed = append(completed, float64(per[i].Completed))
	}
	r.ChannelFairness = stats.Jain(completed)
	return r
}

// validate checks the required Config fields.
func (cfg *Config) validate() error {
	if cfg.Channels < 1 {
		return fmt.Errorf("cluster: Config.Channels must be >= 1, got %d", cfg.Channels)
	}
	if cfg.Arrivals == nil {
		return fmt.Errorf("cluster: Config.Arrivals is required")
	}
	if cfg.Router == nil {
		return fmt.Errorf("cluster: Config.Router is required")
	}
	if cfg.NewStation == nil {
		return fmt.Errorf("cluster: Config.NewStation is required")
	}
	return nil
}
