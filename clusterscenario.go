package lowsensing

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"

	"lowsensing/cluster"
	"lowsensing/internal/arrivals"
	"lowsensing/internal/sim"
	"lowsensing/obs"
)

// This file is the declarative surface of the cluster subsystem: a
// ClusterScenario describes a C-channel run (see the cluster package for
// the execution model), and RouterSpec describes its router as data,
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
	// (epoch-synchronized execution; exact backlogs).
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

// ClusterScenario is the declarative description of one multi-channel
// cluster run: C channels sharing the clock and the arrival stream, a
// router assigning packets to channels, and per-channel protocol/jammer
// dynamics. Like Scenario it is pure data — Run constructs every stateful
// component fresh — and the JSON encoding round-trips.
type ClusterScenario struct {
	// Seed fixes the run's randomness; every channel derives its own
	// stream (cluster.ChannelSeed), and the router is seeded from it too.
	Seed uint64 `json:"seed,omitempty"`
	// Channels is C, the number of slotted channels. Required, >= 1.
	Channels int `json:"channels"`
	// MaxSlots caps every channel's run length (0 means the engine
	// default). Arrivals after it are dropped.
	MaxSlots int64 `json:"max_slots,omitempty"`
	// Arrivals is the cluster-wide packet arrival process. Required.
	Arrivals ArrivalsSpec `json:"arrivals"`
	// Protocol selects the contention-resolution protocol run on every
	// channel. The zero value is LOW-SENSING BACKOFF with DefaultConfig.
	Protocol ProtocolSpec `json:"protocol,omitzero"`
	// Jammer selects the adversary; each channel gets its own
	// independently seeded instance. The zero value means no jamming.
	Jammer JammerSpec `json:"jammer,omitzero"`
	// Router selects the routing policy. The zero value is RouterRandom.
	Router RouterSpec `json:"router,omitzero"`
	// Churn selects a population-churn process (zero value = none). The
	// churn's join stream merges into the cluster-wide arrival stream — so
	// joining packets are routed like any others — and its leave law gives
	// every packet finite patience, keyed by the packet's channel-local id
	// and arrival slot.
	Churn ChurnSpec `json:"churn,omitzero"`
	// Faults selects the station fault model injected on every channel
	// (zero value = none); each channel draws from its own derived fault
	// stream. Fault counts merge into Total.Faults.
	Faults FaultSpec `json:"faults,omitzero"`
	// DisableBatching forces every channel through the engine's general
	// per-slot resolver. Results are bit-identical either way.
	DisableBatching bool `json:"disable_batching,omitempty"`

	// Workers bounds execution parallelism (<= 0 means GOMAXPROCS). An
	// execution detail, not part of the scenario's meaning — results are
	// byte-identical at any value — so it is not serialized.
	Workers int `json:"-"`
}

// clone returns a deep copy (the component specs' Params maps are
// copied), so patching a clone never writes through to the original.
func (cs ClusterScenario) clone() ClusterScenario {
	cs.Arrivals.Params = maps.Clone(cs.Arrivals.Params)
	cs.Protocol.Params = maps.Clone(cs.Protocol.Params)
	cs.Jammer.Params = maps.Clone(cs.Jammer.Params)
	cs.Router.Params = maps.Clone(cs.Router.Params)
	cs.Churn.Params = maps.Clone(cs.Churn.Params)
	cs.Faults.Params = maps.Clone(cs.Faults.Params)
	return cs
}

// config builds the cluster.Config the scenario describes, constructing
// the seeded components.
func (cs ClusterScenario) config() (cluster.Config, error) {
	if cs.Channels < 1 {
		return cluster.Config{}, fmt.Errorf("lowsensing: ClusterScenario.Channels must be >= 1, got %d", cs.Channels)
	}
	src, err := cs.Arrivals.Source(cs.Seed)
	if err != nil {
		return cluster.Config{}, err
	}
	factory, err := cs.Protocol.Factory()
	if err != nil {
		return cluster.Config{}, err
	}
	rt, err := cs.Router.Router(cs.Seed)
	if err != nil {
		return cluster.Config{}, err
	}
	ch, err := cs.Churn.Churn(cs.Seed)
	if err != nil {
		return cluster.Config{}, err
	}
	var lifetime func(id, arrival int64) int64
	if ch != nil {
		if joins := ch.Joins(); joins != nil {
			src = arrivals.NewMerge(src, joins)
		}
		lifetime = ch.LeaveSlot
	}
	model, err := cs.Faults.Model()
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.Config{
		Channels:   cs.Channels,
		Workers:    cs.Workers,
		Seed:       cs.Seed,
		MaxSlots:   cs.MaxSlots,
		Arrivals:   src,
		Router:     rt,
		NewStation: factory,
		Lifetime:   lifetime,
		Faults:     model,
		// Registered protocol kinds produce uniformly-configured stations
		// (the RegisterProtocol contract), so recycling is always safe
		// here — same rule as the single-channel Scenario layer.
		ReuseStations:   true,
		DisableBatching: cs.DisableBatching,
	}
	if cs.Jammer.Kind != "" {
		jspec := cs.Jammer
		cfg.NewJammer = func(_ int, seed uint64) (Jammer, error) {
			return jspec.Jammer(seed)
		}
	}
	return cfg, nil
}

// Run executes the cluster scenario once. All stateful components are
// constructed fresh, so Run may be called repeatedly and concurrently on
// copies.
func (cs ClusterScenario) Run() (ClusterResult, error) {
	cfg, err := cs.config()
	if err != nil {
		return ClusterResult{}, err
	}
	return cluster.Run(cfg)
}

// RunObserved executes the scenario with a per-channel recorder built by
// mk (called once per channel with the channel index; a nil return leaves
// that channel unobserved). Each recorder receives its own channel's
// event stream and is flushed when the channel finishes. Observing a
// channel never changes how it executes.
func (cs ClusterScenario) RunObserved(mk func(ch int) Recorder) (ClusterResult, error) {
	cfg, err := cs.config()
	if err != nil {
		return ClusterResult{}, err
	}
	cfg.NewRecorder = func(ch int) obs.Recorder { return mk(ch) }
	return cluster.Run(cfg)
}

// FaultFree returns a copy of the cluster scenario with the churn and
// fault specs stripped — the baseline RunWithBaseline measures degradation
// against.
func (cs ClusterScenario) FaultFree() ClusterScenario {
	out := cs.clone()
	out.Churn = ChurnSpec{}
	out.Faults = FaultSpec{}
	return out
}

// RunWithBaseline executes the cluster scenario and its FaultFree
// counterpart and fills Result.Degradation with the whole-cluster delta
// against the baseline (computed over the merged Totals). The two runs
// share the seed, so the comparison isolates exactly the churn and fault
// effects.
func (cs ClusterScenario) RunWithBaseline() (ClusterResult, error) {
	res, err := cs.Run()
	if err != nil {
		return ClusterResult{}, err
	}
	base, err := cs.FaultFree().Run()
	if err != nil {
		return ClusterResult{}, fmt.Errorf("lowsensing: fault-free baseline: %w", err)
	}
	res.Degradation = sim.DegradationVs(res.Total, base.Total)
	return res, nil
}

// Validate checks that every part of the scenario is constructible. It
// builds (and discards) the seeded components, so a nil error means Run
// cannot fail before the engines start.
func (cs ClusterScenario) Validate() error {
	_, err := cs.config()
	return err
}

// ParseClusterScenario decodes a JSON cluster scenario strictly (unknown
// fields are errors, catching typos in spec files) and validates it.
func ParseClusterScenario(data []byte) (ClusterScenario, error) {
	var cs ClusterScenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cs); err != nil {
		return ClusterScenario{}, fmt.Errorf("lowsensing: parsing cluster scenario: %w", err)
	}
	if err := cs.Validate(); err != nil {
		return ClusterScenario{}, err
	}
	return cs, nil
}
