package lowsensing

import (
	"fmt"

	"lowsensing/cluster"
	"lowsensing/internal/sim"
	"lowsensing/obs"
)

// This file is the declarative surface of the cluster subsystem: a
// Scenario with Channels >= 1 describes a C-channel run (see the cluster
// package for the execution model), ClusterScenario exposes its
// per-channel breakdown, and RouterSpec describes its router as data,
// resolved through the router registry exactly like protocols, arrivals,
// and jammers.

// Router is the cluster routing contract: it decides which of the C
// channels each arriving packet joins. See cluster.Router for the full
// contract; register new kinds with RegisterRouter.
type Router = cluster.Router

// RouterView is the read-only cluster state a Router sees when routing a
// packet. See cluster.View.
type RouterView = cluster.View

// ClusterResult is the outcome of a cluster run: per-channel Results, the
// routing tally, merged totals, and the Jain fairness index. See
// cluster.Result.
type ClusterResult = cluster.Result

// Built-in router kinds. The set is open: RegisterRouter adds new kinds
// that resolve everywhere these do.
const (
	// RouterRandom assigns each packet to a uniformly random channel.
	RouterRandom = "random"
	// RouterRoundRobin cycles through channels in arrival order.
	RouterRoundRobin = "roundrobin"
	// RouterLeastBacklog joins the channel with the fewest live packets
	// (exact backlogs at each arrival slot).
	RouterLeastBacklog = "leastbacklog"
	// RouterSticky hashes a flow key to a fixed channel (flows: number of
	// flows keyed by id % flows; 0 means every packet is its own flow).
	RouterSticky = "sticky"
)

// RouterSpec describes a cluster router as data. The zero value is
// RouterRandom.
type RouterSpec struct {
	// Kind is one of the Router* constants or any kind added with
	// RegisterRouter; "" means RouterRandom.
	Kind string `json:"kind,omitempty"`
	// Flows is the sticky router's flow count: packets are keyed by
	// id % flows (<= 0 means every packet is its own flow). Ignored by
	// other built-in kinds.
	Flows int64 `json:"flows,omitempty"`
	// Params carries free-form numeric parameters for registered
	// (non-built-in) kinds, so custom routers are serializable without
	// new spec fields. Built-in kinds ignore it.
	Params map[string]float64 `json:"params,omitempty"`
}

// StickyRouting describes affinity routing over the given number of
// flows (flows <= 0 keys every packet individually).
func StickyRouting(flows int64) RouterSpec {
	return RouterSpec{Kind: RouterSticky, Flows: flows}
}

// Router constructs the router the spec describes, seeded for one run,
// resolving the kind through the router registry ("" resolves as
// RouterRandom). Routers are single-use: construct a fresh one per run.
func (r RouterSpec) Router(seed uint64) (Router, error) {
	kind := r.Kind
	if kind == "" {
		kind = RouterRandom
	}
	factory, err := routerRegistry.lookup(kind)
	if err != nil {
		return nil, err
	}
	return factory(r, seed)
}

// ClusterScenario is a cluster Scenario (Channels >= 1) viewed through its
// per-channel breakdown: where Scenario.Run returns the merged Result,
// ClusterScenario(sc).Run returns the whole ClusterResult — every
// channel's Result, the routing tally, and the fairness index. It is the
// same data with the same JSON encoding; convert freely in either
// direction.
type ClusterScenario Scenario

// checkChannels rejects a ClusterScenario that describes no cluster.
func (cs ClusterScenario) checkChannels() error {
	if cs.Channels < 1 {
		return fmt.Errorf("lowsensing: ClusterScenario.Channels must be >= 1, got %d", cs.Channels)
	}
	return nil
}

// Run executes the cluster scenario once. All stateful components are
// constructed fresh, so Run may be called repeatedly and concurrently on
// copies.
func (cs ClusterScenario) Run() (ClusterResult, error) { return cs.RunObserved(nil) }

// RunObserved executes the scenario with a per-channel recorder built by
// mk (called once per channel with the channel index; a nil return leaves
// that channel unobserved). Each recorder receives its own channel's
// event stream and is flushed when the channel finishes. Observing a
// channel never changes how it executes.
func (cs ClusterScenario) RunObserved(mk func(ch int) Recorder) (ClusterResult, error) {
	if err := cs.checkChannels(); err != nil {
		return ClusterResult{}, err
	}
	cfg, err := Scenario(cs).clusterConfig()
	if err != nil {
		return ClusterResult{}, err
	}
	if mk != nil {
		cfg.NewRecorder = func(ch int) obs.Recorder { return mk(ch) }
	}
	return cluster.Run(cfg)
}

// Validate checks that the scenario describes a cluster and that every
// part of it is constructible (see Scenario.Validate).
func (cs ClusterScenario) Validate() error {
	if err := cs.checkChannels(); err != nil {
		return err
	}
	return Scenario(cs).Validate()
}

// ParseClusterScenario is ParseScenario for specs that must describe a
// cluster: it additionally rejects Channels < 1.
func ParseClusterScenario(data []byte) (ClusterScenario, error) {
	sc, err := ParseScenario(data)
	if err != nil {
		return ClusterScenario{}, err
	}
	cs := ClusterScenario(sc)
	if err := cs.checkChannels(); err != nil {
		return ClusterScenario{}, err
	}
	return cs, nil
}

// clusterConfig builds the cluster.Config a Channels >= 1 scenario
// describes, constructing the seeded components.
func (sc Scenario) clusterConfig() (cluster.Config, error) {
	if err := sc.validateShape(); err != nil {
		return cluster.Config{}, err
	}
	w, err := sc.resolve(nil, nil)
	if err != nil {
		return cluster.Config{}, err
	}
	rt, err := sc.Router.Router(sc.Seed)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.Config{
		Channels: sc.Channels,
		Seed:     sc.Seed,
		MaxSlots: sc.MaxSlots,
		Arrivals: w.source,
		Router:   rt,
		// Registered protocol kinds produce uniformly-configured stations
		// (the RegisterProtocol contract), as Config.NewStation requires.
		NewStation: w.factory,
		Lifetime:   w.lifetime,
		Faults:     w.faults,
	}
	if sc.Jammer.Kind != "" {
		jspec := sc.Jammer
		cfg.NewJammer = func(_ int, seed uint64) (Jammer, error) {
			return jspec.Jammer(seed)
		}
	}
	return cfg, nil
}

// runCluster is Simulation.Run for a Channels != 0 scenario (negative
// counts fail in clusterConfig's shape check): it runs the
// cluster executor and returns the merged Total. Every channel builds its
// own components from the spec, so custom instances cannot take part, and
// a recorder bound to one engine has no cluster-wide meaning. Attached
// recorders are shared by every channel, and see the channels' events
// interleaved in epoch order. Like the single-channel path, Run leaves
// flushing to the caller — the executor's per-channel flush is hidden
// from shared recorders.
func (s *Simulation) runCluster() (Result, error) {
	if s.customArrivals != nil || s.customFactory != nil || s.customJammer != nil {
		return Result{}, fmt.Errorf("lowsensing: WithArrivals/WithStations/WithJammer cannot combine with a cluster scenario (every channel builds its own components from the spec)")
	}
	for _, r := range s.recorders {
		if _, ok := r.(sim.EngineBound); ok {
			return Result{}, fmt.Errorf("lowsensing: engine-bound recorder %T cannot observe a cluster run (it binds to a single engine)", r)
		}
	}
	cfg, err := s.sc.clusterConfig()
	if err != nil {
		return Result{}, err
	}
	if rec := obs.Multi(s.recorders...); rec != nil {
		shared := sharedRecorder{rec}
		cfg.NewRecorder = func(int) obs.Recorder { return shared }
	}
	cr, err := cluster.Run(cfg)
	if err != nil {
		return Result{}, err
	}
	return cr.Total, nil
}

// sharedRecorder forwards a recorder's events but not its Flush, so the
// cluster executor's per-channel flush skips a recorder every channel
// shares.
type sharedRecorder struct{ obs.Recorder }
