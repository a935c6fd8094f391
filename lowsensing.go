// Package lowsensing is a library implementation of LOW-SENSING BACKOFF —
// the fully energy-efficient randomized backoff algorithm of Bender,
// Fineman, Gilbert, Kuszmaul, and Young (PODC 2024) — together with the
// slotted-channel simulator, adversaries (adaptive arrivals, jamming,
// reactive jamming), baseline protocols, and the benchmark harness that
// reproduces the paper's results.
//
// The quickest way in:
//
//	res, err := lowsensing.Scenario{
//	    Seed:     1,
//	    Arrivals: lowsensing.BatchArrivals(1024),
//	}.Run()
//	// res.Throughput() ≈ 0.3, res.MeanAccesses() = O(polylog N)
//
// A run is described by a Scenario — a serializable value covering
// arrivals, protocol, jammer, churn, faults, slot cap, seed, and optionally
// a multi-channel cluster (Scenario.Channels) — and multi-run experiments
// by a Sweep, which executes every (point, replication) pair of a parameter
// grid on a worker pool with deterministic per-job seeding and streams
// per-point aggregates. Specs can live in files:
//
//	sc, _ := lowsensing.ParseScenario(jsonSpec)
//	res, _ := sc.Run()
//
// What cannot be data — custom instances and recorders — attaches as an
// Option through Scenario.Simulation.
//
// Default runs are constant-memory per live packet — the engine state and
// the Result both stay O(backlog) on arbitrarily long streams, with energy
// and latency statistics kept in streaming accumulators (Result.Energy).
// Per-packet records stream out through a recorder
// (WithRecorder(obs.PacketFunc(...)), obs.Ring, or the NDJSON/CSV sinks).
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

// Collector samples backlog, implicit throughput, contention, the potential
// Φ and the active window distribution (min, median, max) during a run; it
// is a Recorder bound to the run's engine — attach one with WithRecorder.
type Collector = metrics.Collector

// Tracer records per-slot channel events; it is a Recorder — attach one
// with WithRecorder.
type Tracer = trace.Tracer

// Recorder consumes a run's structured event stream (slot and packet
// events); attach one with WithRecorder. The lowsensing/obs package
// provides composable implementations: fan-out, slot-range filtering, ring
// buffers, windowed time-series, and NDJSON/CSV sinks.
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
// describe the component as Scenario data — spec'd components are
// reconstructed per Run, so such a Simulation can be re-run freely.
var ErrReused = errors.New("lowsensing: Simulation already run; WithArrivals/WithJammer wrap single-use instances — rebuild it or use a Scenario")

// Simulation is a configured run, built by Scenario.Simulation: the
// scenario's data plus what cannot be data — custom instances and
// recorders, attached by the options below.
type Simulation struct {
	sc Scenario
	// Custom (non-serializable) components override the scenario fields.
	customArrivals ArrivalSource
	customFactory  StationFactory
	customJammer   Jammer
	recorders      []Recorder
	ran            bool
}

// Option attaches to a Simulation what a Scenario cannot hold as data: a
// custom arrival source, station factory or jammer instance (WithArrivals,
// WithStations, WithJammer), or a recorder (WithRecorder).
type Option func(*Simulation)

// Run executes the simulation. A scenario with Channels >= 1 runs on the
// cluster executor and returns the cluster's merged Result, per-channel
// breakdown included; its recorders observe every channel (see
// WithRecorder).
func (s *Simulation) Run() (Result, error) {
	var r Result
	if err := s.runInto(&r); err != nil {
		return Result{}, err
	}
	return r, nil
}

// runInto is Run writing the result into *r, which it overwrites in full
// (see sim.Engine.RunInto); a sweep job runs straight into its runner
// slot this way. On error *r may hold part of a result and must not be
// read.
func (s *Simulation) runInto(r *Result) error {
	if s.sc.Channels != 0 {
		return s.runCluster(r)
	}
	if err := s.sc.validateShape(); err != nil {
		return err
	}
	if s.ran && (s.customArrivals != nil || s.customJammer != nil) {
		return ErrReused
	}
	w, err := s.sc.resolve(s.customArrivals, s.customFactory)
	if err != nil {
		return err
	}
	// The run's observers: per-class accounting is a recorder like any
	// caller's, and comes first so a user recorder sees a packet after the
	// run has accounted it.
	var recs []Recorder
	if w.mc != nil {
		recs = append(recs, w.mc)
	}
	jammer := s.customJammer
	if jammer == nil {
		if jammer, err = s.sc.Jammer.Jammer(s.sc.Seed); err != nil {
			return err
		}
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
		return err
	}
	for _, r := range s.recorders {
		if b, ok := r.(sim.EngineBound); ok {
			b.Bind(e)
		}
	}
	if err := e.RunInto(r); err != nil {
		return err
	}
	if w.mc != nil {
		w.mc.finalize(r)
	}
	return nil
}

// WithArrivals supplies a custom arrival source instance, which takes
// precedence over Scenario.Arrivals. Arrival sources are consumed as they
// run, so a Simulation carrying one is single-use: a second Run returns
// ErrReused.
func WithArrivals(src ArrivalSource) Option {
	return func(s *Simulation) { s.customArrivals = src }
}

// WithStations supplies a custom station factory (any Station
// implementation), which takes precedence over Scenario.Protocol. Custom
// factories keep exact factory-per-packet semantics: the engine calls f
// for every injected packet and never recycles the stations it returns (a
// closure may legally vary its output per packet id). Protocols from
// registered kinds additionally get station recycling; see
// ReusableStation.
//
// The engine calls f from the goroutine that runs the Simulation. A
// factory serves one run at a time (see channel.StationFactory): give
// Simulations that run concurrently a factory each.
func WithStations(f StationFactory) Option {
	return func(s *Simulation) { s.customFactory = f }
}

// WithJammer supplies a custom jammer instance, which takes precedence
// over Scenario.Jammer. Jammers spend budget as they run, so a Simulation
// carrying one is single-use: a second Run returns ErrReused.
func WithJammer(j Jammer) Option {
	return func(s *Simulation) { s.customJammer = j }
}

// WithRecorder attaches a structured event recorder, the run's one
// observation hook: it receives a SlotEvent after every resolved slot and a
// PacketEvent for every packet (delivered packets at departure, churn
// abandons at their leave slot, survivors at the end of the run with
// Departure = -1). Multiple recorders compose; see lowsensing/obs for
// sinks, decorators, windowed time-series, and obs.PacketFunc for a
// per-packet callback. A recorder implementing sim.EngineBound —
// Collector, for instance — is bound to the run's engine before it starts
// and may read the engine's accessors from its callbacks. Observing a run
// never changes how it executes; runs without a recorder pay one
// predictable branch per slot. On a cluster, a recorder sees every
// channel's events interleaved in epoch order, each carrying its Channel;
// obs.ByChannel gives each channel a stream of its own, as a slot-windowed
// recorder (obs.Windows) needs. Run never flushes a recorder.
func WithRecorder(r Recorder) Option {
	return func(s *Simulation) {
		if r != nil {
			s.recorders = append(s.recorders, r)
		}
	}
}
