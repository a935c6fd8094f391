package lowsensing

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"

	"lowsensing/internal/arrivals"
)

// Scenario is a declarative, serializable description of one simulation
// run: arrivals, protocol, jammer, churn, faults, slot cap, seed, and — with
// Channels >= 1 — the multi-channel cluster it runs on. It is the one way
// to describe a run, so specs can live in JSON files, be diffed, and be
// swept over; Simulation layers on what cannot be data (custom instances
// and recorders).
//
// A Scenario is pure data: Run constructs every stateful component
// (arrival sources, jammers, stations, routers) fresh from the spec and the
// seed, so the same Scenario can be Run any number of times and always
// describes the same distribution over executions. The JSON encoding
// round-trips: unmarshal(marshal(sc)) runs identically to sc.
type Scenario struct {
	// Seed fixes the run's randomness; identical seeds give identical runs.
	Seed uint64 `json:"seed,omitempty"`
	// MaxSlots caps the run length (0 means the engine default).
	MaxSlots int64 `json:"max_slots,omitempty"`
	// Arrivals is the packet arrival process. Required.
	Arrivals ArrivalsSpec `json:"arrivals"`
	// Protocol selects the contention-resolution protocol. The zero value
	// is LOW-SENSING BACKOFF with DefaultConfig.
	Protocol ProtocolSpec `json:"protocol,omitzero"`
	// Jammer selects the adversary. The zero value means no jamming.
	Jammer JammerSpec `json:"jammer,omitzero"`
	// Churn selects the population-churn process (joins and abandons). The
	// zero value means a static population.
	Churn ChurnSpec `json:"churn,omitzero"`
	// Faults selects the station fault model (sensing corruption, crashes).
	// The zero value means fault-free stations.
	Faults FaultSpec `json:"faults,omitzero"`
	// Classes, when non-empty, makes the run a heterogeneous multi-class
	// workload: every class brings its own arrivals, protocol, churn, and
	// faults, all sharing one channel (and the scenario's jammer). The
	// top-level Arrivals, Churn, and Faults must then stay zero — each
	// class carries its own — and results gain per-class accounting
	// (Result.Classes) plus the cross-class Jain fairness index.
	Classes []ClassSpec `json:"classes,omitempty"`
	// Channels, when >= 1, runs the scenario on a cluster of that many
	// slotted channels (see the cluster package): the channels share the
	// clock and the arrival stream, Router assigns each packet a channel,
	// and every channel runs the protocol, its own jammer instance, and the
	// churn and fault laws from its own derived seed (cluster.ChannelSeed).
	// The channels are stepped serially on the calling goroutine.
	// Run then returns the merged Result, with the per-channel breakdown
	// in Result.PerChannel, Routed and ChannelFairness, and a recorder
	// sees every event labeled with its channel (obs.ByChannel splits the
	// stream per channel). 0 means the single-channel engine. Clusters
	// carry no Classes (station ids are channel-local).
	Channels int `json:"channels,omitempty"`
	// Router selects the cluster routing policy; the zero value is
	// RouterRandom. Setting it requires Channels >= 1.
	Router RouterSpec `json:"router,omitzero"`

	// Workers is not serialized and has no effect.
	//
	// Deprecated: a cluster steps its channels serially on the calling
	// goroutine; run scenarios in parallel with a Sweep instead.
	Workers int `json:"-"`
}

// clone returns a deep copy of the scenario: the Params maps of every
// component spec and the Classes slice (with each class's maps) are copied,
// so patching or mutating the clone never writes through to the original.
// The sweep machinery clones the base before applying each grid point's
// patches.
func (sc Scenario) clone() Scenario {
	sc.Arrivals.Params = maps.Clone(sc.Arrivals.Params)
	sc.Protocol.Params = maps.Clone(sc.Protocol.Params)
	sc.Jammer.Params = maps.Clone(sc.Jammer.Params)
	sc.Churn.Params = maps.Clone(sc.Churn.Params)
	sc.Faults.Params = maps.Clone(sc.Faults.Params)
	sc.Router.Params = maps.Clone(sc.Router.Params)
	if sc.Classes != nil {
		classes := make([]ClassSpec, len(sc.Classes))
		copy(classes, sc.Classes)
		for i := range classes {
			classes[i].Arrivals.Params = maps.Clone(classes[i].Arrivals.Params)
			classes[i].Protocol.Params = maps.Clone(classes[i].Protocol.Params)
			classes[i].Churn.Params = maps.Clone(classes[i].Churn.Params)
			classes[i].Faults.Params = maps.Clone(classes[i].Faults.Params)
		}
		sc.Classes = classes
	}
	return sc
}

// Simulation builds a runnable Simulation from the scenario, with options
// for what a scenario cannot hold as data: custom instances, which take
// precedence over their scenario fields, and recorders.
//
// Default runs are constant-memory per live packet: the engine keeps
// O(backlog) state however many packets stream through, and the Result
// carries streaming energy/latency accumulators instead of per-packet
// records. Per-packet data streams out through a recorder: obs.PacketFunc
// sees every packet's final stats, obs.Ring keeps the last N.
func (sc Scenario) Simulation(opts ...Option) *Simulation {
	s := &Simulation{sc: sc}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Run executes the scenario once — on the cluster executor when Channels
// >= 1, returning the merged Result with its per-channel breakdown. All stateful components are
// constructed fresh, so Run may be called repeatedly and concurrently on
// copies.
func (sc Scenario) Run() (Result, error) { return sc.Simulation().Run() }

// Validate checks that every part of the scenario is constructible. It
// builds (and discards) the seeded components, so a nil error means Run
// cannot fail before the engine starts.
func (sc Scenario) Validate() error {
	if err := sc.validateShape(); err != nil {
		return err
	}
	if _, err := sc.resolve(nil, nil); err != nil {
		return err
	}
	if _, err := sc.Jammer.Jammer(sc.Seed); err != nil {
		return err
	}
	if sc.Channels >= 1 {
		if _, err := sc.Router.Router(sc.Seed); err != nil {
			return err
		}
	}
	return nil
}

// validateShape checks the field combinations no component resolution
// would catch: the cluster fields, and a multi-class scenario's classes
// (which replace the top-level arrivals, churn, and faults, and need
// unique names).
func (sc Scenario) validateShape() error {
	switch {
	case sc.Channels < 0:
		return fmt.Errorf("lowsensing: Scenario.Channels must be >= 0, got %d", sc.Channels)
	case sc.Channels == 0 && (sc.Router.Kind != "" || sc.Router.Flows != 0 || len(sc.Router.Params) > 0):
		return fmt.Errorf("lowsensing: a router needs a cluster (channels >= 1)")
	case sc.Channels >= 1 && len(sc.Classes) > 0:
		return fmt.Errorf("lowsensing: a cluster scenario (channels >= 1) cannot carry classes: station ids are channel-local")
	}
	if len(sc.Classes) == 0 {
		return nil
	}
	if sc.Arrivals.Kind != "" {
		return fmt.Errorf("lowsensing: scenario with classes must not set top-level arrivals (each class has its own)")
	}
	if sc.Churn.Kind != "" || sc.Faults.Kind != "" {
		return fmt.Errorf("lowsensing: scenario with classes must not set top-level churn/faults (each class has its own)")
	}
	seen := make(map[string]bool, len(sc.Classes))
	for i, cl := range sc.Classes {
		if cl.Name == "" {
			return fmt.Errorf("lowsensing: class %d has no name", i)
		}
		if seen[cl.Name] {
			return fmt.Errorf("lowsensing: duplicate class name %q", cl.Name)
		}
		seen[cl.Name] = true
	}
	return nil
}

// workload is a scenario's resolved, run-ready form: the components the
// single-channel engine and the cluster executor both take.
type workload struct {
	// source is the arrival stream, with any churn join stream merged in.
	source ArrivalSource
	// factory builds every packet's station.
	factory StationFactory
	// lifetime is the churn leave law (nil without churn).
	lifetime func(id, arrival int64) int64
	// faults is the station fault model (nil without faults).
	faults FaultModel
	// mc is the per-class dispatch state of a multi-class scenario.
	mc *multiclassRun
}

// resolve constructs the scenario's workload fresh for one run. A non-nil
// src or factory — a custom instance from WithArrivals or WithStations —
// stands in for the spec's.
func (sc Scenario) resolve(src ArrivalSource, factory StationFactory) (workload, error) {
	if len(sc.Classes) > 0 {
		if src != nil || factory != nil {
			return workload{}, errors.New("lowsensing: WithArrivals/WithStations cannot combine with Scenario.Classes (each class brings its own)")
		}
		mc, err := newMulticlassRun(sc)
		if err != nil {
			return workload{}, err
		}
		return workload{source: mc.source, factory: mc.factory(), lifetime: mc.lifetime(), faults: mc.faults(), mc: mc}, nil
	}
	var err error
	if src == nil {
		if src, err = sc.Arrivals.Source(sc.Seed); err != nil {
			return workload{}, err
		}
	}
	if factory == nil {
		if factory, err = sc.Protocol.Factory(); err != nil {
			return workload{}, err
		}
	}
	w := workload{source: src, factory: factory}
	ch, err := sc.Churn.Churn(sc.Seed)
	if err != nil {
		return workload{}, err
	}
	if ch != nil {
		if joins := ch.Joins(); joins != nil {
			w.source = arrivals.NewMerge(src, joins)
		}
		w.lifetime = ch.LeaveSlot
	}
	if w.faults, err = sc.Faults.Model(); err != nil {
		return workload{}, err
	}
	return w, nil
}

// ParseScenario decodes a JSON scenario strictly (unknown fields are
// errors, catching typos in spec files) and validates it.
func ParseScenario(data []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("lowsensing: parsing scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Built-in arrival process kinds. The set is open: RegisterArrivals adds
// new kinds that resolve everywhere these do.
const (
	// ArrivalsBatch injects N packets at slot 0.
	ArrivalsBatch = "batch"
	// ArrivalsBernoulli injects one packet per slot with probability Rate.
	ArrivalsBernoulli = "bernoulli"
	// ArrivalsPoisson injects Poisson(Rate) packets per slot.
	ArrivalsPoisson = "poisson"
	// ArrivalsQueue is the adversarial-queuing model: bursts of
	// floor(Rate·Granularity) packets at the start of each window.
	ArrivalsQueue = "aqt"
	// ArrivalsFile replays a recorded slot/count trace from Path.
	ArrivalsFile = "file"
)

// ArrivalsSpec describes a packet arrival process as data.
type ArrivalsSpec struct {
	// Kind is one of the Arrivals* constants or any kind added with
	// RegisterArrivals.
	Kind string `json:"kind"`
	// N is the batch size (batch) or the total packet budget
	// (bernoulli/poisson; <= 0 means unbounded — pair with MaxSlots).
	N int64 `json:"n,omitempty"`
	// Rate is the per-slot probability (bernoulli), intensity (poisson),
	// or window rate λ (aqt).
	Rate float64 `json:"rate,omitempty"`
	// Granularity is the AQT window length S.
	Granularity int64 `json:"granularity,omitempty"`
	// Windows is the number of AQT windows.
	Windows int64 `json:"windows,omitempty"`
	// Path is the trace file replayed by the file kind.
	Path string `json:"path,omitempty"`
	// Params carries free-form numeric parameters for registered
	// (non-built-in) kinds, so custom arrival processes are serializable
	// without new spec fields. Built-in kinds ignore it.
	Params map[string]float64 `json:"params,omitempty"`
}

// BatchArrivals describes n packets injected at slot 0 — the classic batch
// instance.
func BatchArrivals(n int64) ArrivalsSpec { return ArrivalsSpec{Kind: ArrivalsBatch, N: n} }

// BernoulliArrivals describes one packet per slot with the given
// probability, stopping after total packets (total <= 0 means unbounded).
func BernoulliArrivals(rate float64, total int64) ArrivalsSpec {
	return ArrivalsSpec{Kind: ArrivalsBernoulli, Rate: rate, N: total}
}

// PoissonArrivals describes Poisson(lambda) packets per slot, stopping
// after total packets (total <= 0 means unbounded).
func PoissonArrivals(lambda float64, total int64) ArrivalsSpec {
	return ArrivalsSpec{Kind: ArrivalsPoisson, Rate: lambda, N: total}
}

// QueueArrivals describes adversarial-queuing-theory arrivals: in each of
// `windows` consecutive windows of S slots, a burst of floor(lambda·S)
// packets lands at the window start (the model's worst case).
func QueueArrivals(S int64, lambda float64, windows int64) ArrivalsSpec {
	return ArrivalsSpec{Kind: ArrivalsQueue, Granularity: S, Rate: lambda, Windows: windows}
}

// FileArrivals describes a replay of the recorded slot/count trace at
// path: one "slot count" pair per line, slots nondecreasing.
func FileArrivals(path string) ArrivalsSpec { return ArrivalsSpec{Kind: ArrivalsFile, Path: path} }

// Source constructs the arrival source the spec describes, seeded for one
// run, resolving the kind through the arrivals registry. Most callers never
// need it — Scenario.Run builds components internally — but it lets a
// spec'd process feed WithArrivals or a custom engine.
func (a ArrivalsSpec) Source(seed uint64) (ArrivalSource, error) {
	if a.Kind == "" {
		return nil, fmt.Errorf("lowsensing: no arrival process configured (set Scenario.Arrivals, e.g. BatchArrivals(n))")
	}
	factory, err := arrivalsRegistry.lookup(a.Kind)
	if err != nil {
		return nil, err
	}
	return factory(a, seed)
}

// Built-in protocol kinds. The set is open: RegisterProtocol adds new
// kinds that resolve everywhere these do.
const (
	// ProtocolLSB is LOW-SENSING BACKOFF (the paper's algorithm).
	ProtocolLSB = "lsb"
	// ProtocolBEB is classic binary exponential backoff.
	ProtocolBEB = "beb"
	// ProtocolMWU is the full-sensing multiplicative-weights baseline.
	ProtocolMWU = "mwu"
	// ProtocolSawtooth is the fully oblivious sawtooth-backoff baseline.
	ProtocolSawtooth = "sawtooth"
	// ProtocolAloha is fixed-rate slotted ALOHA with send probability
	// SendProb.
	ProtocolAloha = "aloha"
	// ProtocolPoly is polynomial backoff with initial window W0 and
	// exponent Alpha.
	ProtocolPoly = "poly"
	// ProtocolGenie is the genie-aided ALOHA oracle (knows the backlog).
	ProtocolGenie = "genie"
)

// ProtocolSpec describes a contention-resolution protocol as data. The
// zero value is LOW-SENSING BACKOFF with DefaultConfig.
type ProtocolSpec struct {
	// Kind is one of the Protocol* constants or any kind added with
	// RegisterProtocol; "" means ProtocolLSB.
	Kind string `json:"kind,omitempty"`
	// Config holds the LSB parameters; the zero value means
	// DefaultConfig. Ignored by other kinds.
	Config Config `json:"config,omitzero"`
	// SendProb is the ALOHA per-slot send probability.
	SendProb float64 `json:"send_prob,omitempty"`
	// W0 and Alpha parameterize polynomial backoff (defaults 2 and 2).
	W0    int64   `json:"w0,omitempty"`
	Alpha float64 `json:"alpha,omitempty"`
	// Params carries free-form numeric parameters for registered
	// (non-built-in) kinds, so custom protocols are serializable without
	// new spec fields. Built-in kinds ignore it.
	Params map[string]float64 `json:"params,omitempty"`
}

// LowSensing describes LOW-SENSING BACKOFF with the given parameters. A
// zero Config means DefaultConfig; any other invalid Config fails at Run
// (or Validate).
func LowSensing(cfg Config) ProtocolSpec { return ProtocolSpec{Kind: ProtocolLSB, Config: cfg} }

// BEB describes classic binary exponential backoff.
func BEB() ProtocolSpec { return ProtocolSpec{Kind: ProtocolBEB} }

// MWU describes the full-sensing multiplicative-weights baseline.
func MWU() ProtocolSpec { return ProtocolSpec{Kind: ProtocolMWU} }

// Sawtooth describes the oblivious sawtooth-backoff baseline.
func Sawtooth() ProtocolSpec { return ProtocolSpec{Kind: ProtocolSawtooth} }

// Aloha describes fixed-rate slotted ALOHA with per-slot send probability p.
func Aloha(p float64) ProtocolSpec { return ProtocolSpec{Kind: ProtocolAloha, SendProb: p} }

// Poly describes polynomial backoff with initial window w0 and exponent
// alpha.
func Poly(w0 int64, alpha float64) ProtocolSpec {
	return ProtocolSpec{Kind: ProtocolPoly, W0: w0, Alpha: alpha}
}

// GenieAloha describes the genie-aided ALOHA oracle.
func GenieAloha() ProtocolSpec { return ProtocolSpec{Kind: ProtocolGenie} }

// Factory constructs the station factory the spec describes, resolving the
// kind through the protocol registry ("" resolves as ProtocolLSB).
//
// The factory serves one goroutine at a time: its stations may share
// mutable state, such as the window memo of LOW-SENSING BACKOFF packets.
// Each run of a Scenario resolves a fresh one, so Scenarios run
// concurrently without sharing; a caller running factories itself must
// build one per concurrent run.
func (p ProtocolSpec) Factory() (StationFactory, error) {
	kind := p.Kind
	if kind == "" {
		kind = ProtocolLSB
	}
	factory, err := protocolRegistry.lookup(kind)
	if err != nil {
		return nil, err
	}
	return factory(p)
}

// Built-in jammer kinds. The set is open: RegisterJammer adds new kinds
// that resolve everywhere these do.
const (
	// JammerRandom jams each slot independently with probability Rate, up
	// to Budget jams (0 = unbounded).
	JammerRandom = "random"
	// JammerBurst jams every slot in [From, To).
	JammerBurst = "burst"
	// JammerReactive jams whenever packet Target transmits, up to Budget
	// jams.
	JammerReactive = "reactive"
)

// JammerSpec describes an adversary as data. The zero value means no
// jamming.
type JammerSpec struct {
	// Kind is one of the Jammer* constants or any kind added with
	// RegisterJammer; "" means no jammer.
	Kind string `json:"kind,omitempty"`
	// Rate is the random jammer's per-slot probability.
	Rate float64 `json:"rate,omitempty"`
	// From and To bound the burst jammer's interval [From, To).
	From int64 `json:"from,omitempty"`
	To   int64 `json:"to,omitempty"`
	// Budget caps the total jams (0 = unbounded for random; required > 0
	// semantics follow the underlying jammer).
	Budget int64 `json:"budget,omitempty"`
	// Target is the reactive jammer's victim packet id.
	Target int64 `json:"target,omitempty"`
	// Params carries free-form numeric parameters for registered
	// (non-built-in) kinds, so custom jammers are serializable without new
	// spec fields. Built-in kinds ignore it.
	Params map[string]float64 `json:"params,omitempty"`
}

// RandomJamming describes an adversary that jams each slot independently
// with the given rate, up to budget jams (budget <= 0 means unbounded).
func RandomJamming(rate float64, budget int64) JammerSpec {
	return JammerSpec{Kind: JammerRandom, Rate: rate, Budget: budget}
}

// BurstJamming describes an adversary that jams every slot in [from, to).
func BurstJamming(from, to int64) JammerSpec {
	return JammerSpec{Kind: JammerBurst, From: from, To: to}
}

// ReactiveJamming describes a reactive adversary (paper §1.3) that jams
// whenever the given packet transmits, up to budget jams.
func ReactiveJamming(target, budget int64) JammerSpec {
	return JammerSpec{Kind: JammerReactive, Target: target, Budget: budget}
}

// Jammer constructs the jammer the spec describes, seeded for one run,
// resolving the kind through the jammer registry; a nil Jammer (zero spec)
// means no jamming.
func (j JammerSpec) Jammer(seed uint64) (Jammer, error) {
	if j.Kind == "" {
		return nil, nil
	}
	factory, err := jammerRegistry.lookup(j.Kind)
	if err != nil {
		return nil, err
	}
	return factory(j, seed)
}
