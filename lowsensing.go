// Package lowsensing is a library implementation of LOW-SENSING BACKOFF —
// the fully energy-efficient randomized backoff algorithm of Bender,
// Fineman, Gilbert, Kuszmaul, and Young (PODC 2024) — together with the
// slotted-channel simulator, adversaries (adaptive arrivals, jamming,
// reactive jamming), baseline protocols, and the benchmark harness that
// reproduces the paper's results.
//
// The quickest way in:
//
//	res, err := lowsensing.NewSimulation(
//	    lowsensing.WithBatchArrivals(1024),
//	    lowsensing.WithSeed(1),
//	).Run()
//	// res.Throughput() ≈ 0.3, res.MeanAccesses() = O(polylog N)
//
// Runs are described declaratively by a Scenario — a serializable value
// covering arrivals, protocol, jammer, slot cap, seed, and optionally a
// multi-channel cluster (Scenario.Channels) — and multi-run
// experiments by a Sweep, which executes every (point, replication) pair of
// a parameter grid on a worker pool with deterministic per-job seeding and
// streams per-point aggregates. The functional options below are
// constructors over the same Scenario data, so the two styles compose:
//
//	sc, _ := lowsensing.ParseScenario(jsonSpec) // specs can live in files
//	res, _ := sc.Run()
//
// Default runs are constant-memory per live packet — the engine state and
// the Result both stay O(backlog) on arbitrarily long streams, with energy
// and latency statistics kept in streaming accumulators (Result.Energy).
// Per-packet records are opt-in via WithRetainPacketStats, or stream out
// through WithRecorder(obs.PacketFunc(...)) without retention.
//
// # Extension surface
//
// The three engine-facing contracts — Station (the protocol), ArrivalSource
// (the workload), and Jammer (the adversary) — are public interfaces
// defined in lowsensing/channel, and the kind names specs resolve are an
// open set: RegisterProtocol, RegisterArrivals, and RegisterJammer make a
// user-defined implementation resolvable from Scenario and SweepSpec JSON,
// sweeps, and the CLIs exactly like a built-in (the built-ins register
// through the same path). See the package example RegisterProtocol and the
// README's "Extending lowsensing" section.
package lowsensing

import (
	"errors"

	"lowsensing/channel"
	"lowsensing/internal/core"
	"lowsensing/internal/metrics"
	"lowsensing/internal/sim"
	"lowsensing/internal/stats"
	"lowsensing/internal/trace"
	"lowsensing/obs"
)

// Config holds the LOW-SENSING BACKOFF parameters (the constant c, the
// minimum window, and the ln-exponent k). See core.Config for the details
// and constraints.
type Config = core.Config

// Result summarizes a finished simulation; see sim.Result for all fields
// and derived metrics (Throughput, ImplicitThroughput, MeanAccesses, ...).
type Result = sim.Result

// PacketStats is the per-packet lifetime/energy record inside Result.
type PacketStats = sim.PacketStats

// EnergyStats holds the streaming per-packet accumulators every Result
// carries (Result.Energy): one Tally per metric, in constant memory.
type EnergyStats = sim.EnergyStats

// Tally is a streaming accumulator — count, exact sum, min/max, second
// moment, and a log-bucketed histogram answering quantile queries — used by
// EnergyStats and sweep aggregates.
type Tally = stats.Tally

// Welford accumulates mean, variance, min, and max in one pass without
// storing the sample; sweep aggregates use it for per-replication scalars.
type Welford = stats.Welford

// EnergySummary aggregates per-packet access statistics.
type EnergySummary = metrics.EnergySummary

// Collector samples backlog/throughput/potential time series during a run;
// it is a Recorder bound to the run's engine — attach one with
// WithRecorder.
type Collector = metrics.Collector

// Tracer records per-slot channel events; it is a Recorder — attach one
// with WithRecorder.
type Tracer = trace.Tracer

// Recorder consumes a run's structured event stream (slot and packet
// events); attach one with WithRecorder. The lowsensing/obs package
// provides composable implementations: fan-out, sampling, ring buffers,
// windowed time-series, and NDJSON/CSV sinks.
type Recorder = obs.Recorder

// SlotEvent is the structured record of one resolved slot a Recorder
// receives; see obs.SlotEvent.
type SlotEvent = obs.SlotEvent

// PacketEvent is the structured record of one packet's closed lifecycle a
// Recorder receives; see obs.PacketEvent.
type PacketEvent = obs.PacketEvent

// EngineStats is the engine's self-metrics block, always populated in
// Result.EngineStats; see sim.EngineStats for the field meanings.
type EngineStats = sim.EngineStats

// ArrivalSource produces the (slot, count) arrival schedule of a run; see
// channel.ArrivalSource for the contract. Supply a custom instance with
// WithArrivals, or register a kind with RegisterArrivals to drive it from
// specs.
type ArrivalSource = channel.ArrivalSource

// Jammer decides which slots the adversary jams; see channel.Jammer for
// the contract. Supply a custom instance with WithJammer, or register a
// kind with RegisterJammer to drive it from specs.
type Jammer = channel.Jammer

// ReactiveJammer is a Jammer that also sees the current slot's senders
// before the channel resolves (paper §1.3); see channel.ReactiveJammer.
type ReactiveJammer = channel.ReactiveJammer

// Station is the per-packet protocol state machine — the protocol
// contract; see channel.Station for the slot-level semantics. Supply a
// custom factory with WithStations, or register a kind with
// RegisterProtocol to drive it from specs.
type Station = channel.Station

// ReusableStation is a Station the engine may recycle between packets via
// Reset, making the steady-state packet lifecycle allocation-free; see
// channel.ReusableStation for the contract (Reset must be
// indistinguishable from fresh construction). All built-in protocols
// implement it.
type ReusableStation = channel.ReusableStation

// StationFactory builds the Station for each newly injected packet. Supply
// a custom one with WithStations.
type StationFactory = channel.StationFactory

// Observation is the ternary feedback a station receives at each slot it
// accessed; see channel.Observation.
type Observation = channel.Observation

// Outcome is the ternary channel feedback for one slot (OutcomeEmpty,
// OutcomeSuccess, or OutcomeNoisy); see channel.Outcome.
type Outcome = channel.Outcome

// The three channel outcomes, re-exported from package channel.
const (
	OutcomeEmpty   = channel.OutcomeEmpty
	OutcomeSuccess = channel.OutcomeSuccess
	OutcomeNoisy   = channel.OutcomeNoisy
)

// DefaultConfig returns the reference algorithm parameters used throughout
// the experiments (c = 0.5, w_min = 8, k = 3).
func DefaultConfig() Config { return core.Default() }

// SummarizeEnergy computes per-packet energy and latency statistics.
func SummarizeEnergy(r Result) EnergySummary { return metrics.SummarizeEnergy(r) }

// ErrReused is returned by Run when a Simulation wired to stateful
// instances (WithArrivals, WithJammer) is run a second time: the instance's
// arrival stream or jam budget was consumed by the first run, so re-running
// would silently simulate a different workload. Rebuild the Simulation, or
// describe the run as a Scenario — scenario-backed simulations reconstruct
// every component per Run and can be re-run freely.
var ErrReused = errors.New("lowsensing: Simulation already run; WithArrivals/WithJammer wrap single-use instances — rebuild it or use a Scenario")

// Simulation is a configured run, built by NewSimulation.
//
// The serializable part of the configuration lives in an underlying
// Scenario (see the Scenario method); options are constructors over that
// data. Seeded components (arrival processes, random jammers) are
// constructed at Run time from the final seed, so WithSeed composes with
// the other options in any order.
type Simulation struct {
	err error
	sc  Scenario
	// Custom (non-serializable) components override the scenario fields.
	customArrivals ArrivalSource
	customFactory  StationFactory
	customJammer   Jammer
	recorders      []Recorder
	ran            bool
}

// Option configures a Simulation.
type Option func(*Simulation)

// NewSimulation builds a simulation from options. Arrivals are required
// (e.g. WithBatchArrivals); the protocol defaults to LOW-SENSING BACKOFF
// with DefaultConfig. Configuration errors are deferred to Run so calls
// chain cleanly.
//
// Default runs are constant-memory per live packet: the engine keeps
// O(backlog) state however many packets stream through, and the Result
// carries streaming energy/latency accumulators instead of per-packet
// records. Opt back into per-packet data with WithRetainPacketStats
// (materializes Result.Packets, O(arrivals) memory) or a recorder such as
// obs.PacketFunc (streams every packet's final stats out of the engine).
func NewSimulation(opts ...Option) *Simulation {
	s := &Simulation{}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Scenario returns the serializable description of this simulation. It is
// complete — marshal it, store it, Run it later — unless custom instances
// (WithArrivals, WithStations, WithJammer) or recorders were attached;
// those cannot be expressed as data and are absent from the Scenario.
func (s *Simulation) Scenario() Scenario { return s.sc }

// Run executes the simulation. A scenario with Channels >= 1 runs on the
// cluster executor and returns the cluster's merged Result; its recorders
// are shared by every channel (see Scenario.Channels).
func (s *Simulation) Run() (Result, error) {
	if s.err != nil {
		return Result{}, s.err
	}
	if s.sc.Channels != 0 {
		return s.runCluster()
	}
	if err := s.sc.validateShape(); err != nil {
		return Result{}, err
	}
	if s.ran && (s.customArrivals != nil || s.customJammer != nil) {
		return Result{}, ErrReused
	}
	w, err := s.sc.resolve(s.customArrivals, s.customFactory)
	if err != nil {
		return Result{}, err
	}
	// The run's observers: per-class accounting and packet retention are
	// recorders like any caller's, and come first so a user recorder sees
	// a packet after the run has accounted it.
	var recs []Recorder
	if w.mc != nil {
		recs = append(recs, w.mc)
	}
	jammer := s.customJammer
	if jammer == nil {
		if jammer, err = s.sc.Jammer.Jammer(s.sc.Seed); err != nil {
			return Result{}, err
		}
	}
	var retained *packetTable
	if s.sc.RetainPackets {
		retained = &packetTable{}
		recs = append(recs, retained)
	}
	recs = append(recs, s.recorders...)
	// Only past this point can the engine consume custom instances; earlier
	// configuration errors leave the Simulation retryable, so a failed Run
	// keeps reporting its real error rather than ErrReused.
	s.ran = true
	e, err := sim.NewEngine(sim.Params{
		Seed:       s.sc.Seed,
		Arrivals:   w.source,
		NewStation: w.factory,
		Jammer:     jammer,
		MaxSlots:   s.sc.MaxSlots,
		Recorder:   obs.Multi(recs...),
		Lifetime:   w.lifetime,
		Faults:     w.faults,
		// Station recycling is safe exactly when the factory came from a
		// registered kind: kind factories are built from pure spec data,
		// so every packet gets an identically-configured station and
		// ReusableStation.Reset is indistinguishable from reconstruction.
		// A custom WithStations closure may vary its output per packet id,
		// so it keeps exact factory-per-packet semantics — and so does a
		// multi-class run, whose factory varies by class.
		ReuseStations: s.customFactory == nil && w.mc == nil,
	})
	if err != nil {
		return Result{}, err
	}
	for _, r := range s.recorders {
		if b, ok := r.(sim.EngineBound); ok {
			b.Bind(e)
		}
	}
	res, err := e.Run()
	if err != nil {
		return Result{}, err
	}
	if w.mc != nil {
		w.mc.finalize(&res)
	}
	if retained != nil {
		res.Packets = *retained
	}
	return res, nil
}

// packetTable is the recorder behind Scenario.RetainPackets: it keeps
// every packet's closed record, indexed by packet id.
type packetTable []PacketStats

func (pt *packetTable) RecordSlot(SlotEvent) {}

func (pt *packetTable) RecordPacket(p PacketEvent) {
	if n := p.ID + 1; n > int64(len(*pt)) {
		*pt = append(*pt, make([]PacketStats, n-int64(len(*pt)))...)
	}
	(*pt)[p.ID] = p
}

func (s *Simulation) fail(err error) {
	if s.err == nil && err != nil {
		s.err = err
	}
}

// FromScenario loads a whole scenario at once, replacing any previously
// configured scenario fields and custom components. Recorders attached by
// other options are kept.
func FromScenario(sc Scenario) Option {
	return func(s *Simulation) {
		s.sc = sc
		s.customArrivals = nil
		s.customFactory = nil
		s.customJammer = nil
	}
}

// WithSeed fixes the run's random seed; identical seeds give identical
// runs.
func WithSeed(seed uint64) Option { return func(s *Simulation) { s.sc.Seed = seed } }

// WithMaxSlots caps the run length (0 means the engine default).
func WithMaxSlots(n int64) Option { return func(s *Simulation) { s.sc.MaxSlots = n } }

// setArrivals installs an arrivals spec, clearing any custom source.
func setArrivals(s *Simulation, a ArrivalsSpec) {
	s.sc.Arrivals = a
	s.customArrivals = nil
}

// WithBatchArrivals injects n packets at slot 0 — the classic batch
// instance.
func WithBatchArrivals(n int64) Option {
	return func(s *Simulation) { setArrivals(s, BatchArrivals(n)) }
}

// WithBernoulliArrivals injects one packet per slot with the given
// probability, stopping after total packets (total <= 0 means unbounded —
// pair with WithMaxSlots).
func WithBernoulliArrivals(rate float64, total int64) Option {
	return func(s *Simulation) { setArrivals(s, BernoulliArrivals(rate, total)) }
}

// WithPoissonArrivals injects Poisson(lambda) packets per slot, stopping
// after total packets (total <= 0 means unbounded).
func WithPoissonArrivals(lambda float64, total int64) Option {
	return func(s *Simulation) { setArrivals(s, PoissonArrivals(lambda, total)) }
}

// WithQueueArrivals injects adversarial-queuing-theory arrivals: in each of
// `windows` consecutive windows of S slots, a burst of floor(lambda·S)
// packets lands at the window start (the model's worst case).
func WithQueueArrivals(S int64, lambda float64, windows int64) Option {
	return func(s *Simulation) { setArrivals(s, QueueArrivals(S, lambda, windows)) }
}

// WithArrivalsSpec selects the arrival process from a declarative spec
// (see the Arrivals* constants and the BatchArrivals/BernoulliArrivals/...
// constructors); it is the data-driven counterpart of the WithXxxArrivals
// options.
func WithArrivalsSpec(a ArrivalsSpec) Option {
	return func(s *Simulation) { setArrivals(s, a) }
}

// WithArrivals supplies a custom arrival source instance. Arrival sources
// are consumed as they run, so a Simulation carrying one is single-use:
// a second Run returns ErrReused.
func WithArrivals(src ArrivalSource) Option {
	return func(s *Simulation) {
		s.sc.Arrivals = ArrivalsSpec{}
		s.customArrivals = src
	}
}

// WithProtocol selects the protocol from a declarative spec (see the
// Protocol* constants and the LowSensing/BEB/MWU/... constructors).
func WithProtocol(p ProtocolSpec) Option {
	return func(s *Simulation) {
		s.sc.Protocol = p
		s.customFactory = nil
	}
}

// WithLowSensing runs LOW-SENSING BACKOFF with the given parameters (the
// default protocol uses DefaultConfig). Unlike the ProtocolSpec rule that a
// zero Config means DefaultConfig, an explicitly supplied invalid Config —
// including the zero Config — is rejected.
func WithLowSensing(cfg Config) Option {
	return func(s *Simulation) {
		if err := cfg.Validate(); err != nil {
			s.fail(err)
			return
		}
		s.sc.Protocol = LowSensing(cfg)
		s.customFactory = nil
	}
}

// WithBinaryExponentialBackoff runs the classic oblivious baseline instead
// of LOW-SENSING BACKOFF.
func WithBinaryExponentialBackoff() Option { return WithProtocol(BEB()) }

// WithFullSensingMWU runs the short-feedback-loop multiplicative-weights
// baseline (listens every slot).
func WithFullSensingMWU() Option { return WithProtocol(MWU()) }

// WithSawtoothBackoff runs the fully oblivious sawtooth-backoff baseline
// (constant throughput on batches without any feedback; see experiment
// E11 for how it fares under dynamic arrivals).
func WithSawtoothBackoff() Option { return WithProtocol(Sawtooth()) }

// WithStations supplies a custom station factory (any sim.Station
// implementation). Custom factories keep exact factory-per-packet
// semantics: the engine calls f for every injected packet and never
// recycles the stations it returns (a closure may legally vary its output
// per packet id). Protocols from registered kinds additionally get
// station recycling; see ReusableStation.
func WithStations(f StationFactory) Option {
	return func(s *Simulation) {
		s.sc.Protocol = ProtocolSpec{}
		s.customFactory = f
	}
}

// WithRandomJamming jams each slot independently with the given rate, up to
// budget jams (budget <= 0 means unbounded).
func WithRandomJamming(rate float64, budget int64) Option {
	return func(s *Simulation) {
		s.sc.Jammer = RandomJamming(rate, budget)
		s.customJammer = nil
	}
}

// WithBurstJamming jams every slot in [from, to).
func WithBurstJamming(from, to int64) Option {
	return func(s *Simulation) {
		s.sc.Jammer = BurstJamming(from, to)
		s.customJammer = nil
	}
}

// WithReactiveJamming adds a reactive adversary (paper §1.3) that jams
// whenever the given packet transmits, up to budget jams.
func WithReactiveJamming(target, budget int64) Option {
	return func(s *Simulation) {
		s.sc.Jammer = ReactiveJamming(target, budget)
		s.customJammer = nil
	}
}

// WithJammer supplies a custom jammer instance. Jammers spend budget as
// they run, so a Simulation carrying one is single-use: a second Run
// returns ErrReused.
func WithJammer(j Jammer) Option {
	return func(s *Simulation) {
		s.sc.Jammer = JammerSpec{}
		s.customJammer = j
	}
}

// WithChurn selects the population-churn process from a declarative spec
// (see the Churn* constants and the FlashCrowdChurn/EpochChurn/PoissonChurn
// constructors): flows join mid-run through the spec's extra arrival
// stream, and undelivered packets abandon at their leave slots, counted in
// Result.Abandoned.
func WithChurn(c ChurnSpec) Option {
	return func(s *Simulation) { s.sc.Churn = c }
}

// WithFaults selects the station fault model from a declarative spec (see
// the Fault* constants and the SensingFaults/CrashFaults/FlakyFaults
// constructors): listening stations' observations may be corrupted and
// stations may crash, losing all protocol state. Fault counts land in
// Result.Faults.
func WithFaults(f FaultSpec) Option {
	return func(s *Simulation) { s.sc.Faults = f }
}

// WithClasses makes the run a heterogeneous multi-class workload; see
// Scenario.Classes.
func WithClasses(classes ...ClassSpec) Option {
	return func(s *Simulation) { s.sc.Classes = classes }
}

// WithRecorder attaches a structured event recorder, the run's one
// observation hook: it receives a SlotEvent after every resolved slot and a
// PacketEvent for every packet (delivered packets at departure, churn
// abandons at their leave slot, survivors at the end of the run with
// Departure = -1). Multiple recorders compose; see lowsensing/obs for
// sinks, sampling decorators, windowed time-series, and obs.PacketFunc
// for a per-packet callback. A recorder implementing sim.EngineBound —
// Collector, for instance — is bound to the run's engine before it starts
// and may read the engine's accessors from its callbacks. Observing a run
// never changes how it executes; runs without a recorder pay one
// predictable branch per slot.
func WithRecorder(r Recorder) Option {
	return func(s *Simulation) {
		if r != nil {
			s.recorders = append(s.recorders, r)
		}
	}
}

// WithRetainPacketStats materializes Result.Packets, indexed by packet id —
// O(arrivals) memory. Default runs keep only the streaming accumulators in
// Result.Energy; retain only when the analysis genuinely needs the full
// per-packet table (stream packets through WithRecorder(obs.PacketFunc(...))
// otherwise).
func WithRetainPacketStats() Option {
	return func(s *Simulation) { s.sc.RetainPackets = true }
}
