package lowsensing

import (
	"fmt"

	"lowsensing/cluster"
	"lowsensing/internal/sim"
	"lowsensing/obs"
)

// This file is the declarative surface of the cluster subsystem: a
// Scenario with Channels >= 1 describes a C-channel run (see the cluster
// package for the execution model) whose Result carries the per-channel
// breakdown, and RouterSpec describes its router as data, resolved through
// the router registry exactly like protocols, arrivals, and jammers.

// Router is the cluster routing contract: it decides which of the C
// channels each arriving packet joins. See cluster.Router for the full
// contract; register new kinds with RegisterRouter.
type Router = cluster.Router

// RouterView is the read-only cluster state a Router sees when routing a
// packet. See cluster.View.
type RouterView = cluster.View

// ClusterResult is the outcome of ClusterScenario.Run: Total is the
// Result Scenario.Run returns, and PerChannel, Routed and Fairness are its
// PerChannel, Routed and ChannelFairness.
//
// Deprecated: use Scenario.Run's Result.
type ClusterResult struct {
	PerChannel []Result
	Routed     []int64
	Total      Result
	Fairness   float64
}

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

// ClusterScenario is a cluster Scenario (Channels >= 1) whose Run returns
// a ClusterResult. It is the same data with the same JSON encoding;
// convert freely in either direction.
//
// Deprecated: run the Scenario itself; its Result carries the per-channel
// breakdown.
type ClusterScenario Scenario

// checkChannels rejects a ClusterScenario that describes no cluster.
func (cs ClusterScenario) checkChannels() error {
	if cs.Channels < 1 {
		return fmt.Errorf("lowsensing: ClusterScenario.Channels must be >= 1, got %d", cs.Channels)
	}
	return nil
}

// Run executes the cluster scenario once through Scenario.Run and
// regroups its Result as a ClusterResult.
//
// Deprecated: use Scenario.Run.
func (cs ClusterScenario) Run() (ClusterResult, error) {
	if err := cs.checkChannels(); err != nil {
		return ClusterResult{}, err
	}
	r, err := Scenario(cs).Run()
	if err != nil {
		return ClusterResult{}, err
	}
	return ClusterResult{PerChannel: r.PerChannel, Routed: r.Routed, Total: r, Fairness: r.ChannelFairness}, nil
}

// Validate checks that the scenario describes a cluster and that every
// part of it is constructible (see Scenario.Validate).
//
// Deprecated: use Scenario.Validate.
func (cs ClusterScenario) Validate() error {
	if err := cs.checkChannels(); err != nil {
		return err
	}
	return Scenario(cs).Validate()
}

// ParseClusterScenario is ParseScenario for specs that must describe a
// cluster: it additionally rejects Channels < 1.
//
// Deprecated: use ParseScenario.
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

// runCluster is Simulation.runInto for a Channels != 0 scenario (negative
// counts fail the shape check): it builds the cluster.Config the scenario
// describes, runs the cluster executor, and writes its merged Result,
// breakdown included, into *r. Every channel builds its own components
// from the spec, so custom instances cannot take part, and a recorder
// bound to one engine has no cluster-wide meaning. Attached recorders see
// every channel's events labeled with the channel, and, as on a single
// channel, Run leaves flushing them to the caller.
func (s *Simulation) runCluster(r *Result) error {
	sc := s.sc
	if s.customArrivals != nil || s.customFactory != nil || s.customJammer != nil {
		return fmt.Errorf("lowsensing: WithArrivals/WithStations/WithJammer cannot combine with a cluster scenario (every channel builds its own components from the spec)")
	}
	for _, rec := range s.recorders {
		if _, ok := rec.(sim.EngineBound); ok {
			return fmt.Errorf("lowsensing: engine-bound recorder %T cannot observe a cluster run (it binds to a single engine)", rec)
		}
	}
	if err := sc.validateShape(); err != nil {
		return err
	}
	w, err := sc.resolve(nil, nil)
	if err != nil {
		return err
	}
	rt, err := sc.Router.Router(sc.Seed)
	if err != nil {
		return err
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
		Recorder:   obs.Multi(s.recorders...),
		Lifetime:   w.lifetime,
		Faults:     w.faults,
	}
	if sc.Jammer.Kind != "" {
		jspec := sc.Jammer
		cfg.NewJammer = func(_ int, seed uint64) (Jammer, error) {
			return jspec.Jammer(seed)
		}
	}
	res, err := cluster.Run(cfg)
	if err != nil {
		return err
	}
	*r = res
	return nil
}
