package lowsensing

import (
	"fmt"

	"lowsensing/channel"
	"lowsensing/internal/churn"
	"lowsensing/internal/faults"
	"lowsensing/internal/sim"
)

// This file is the declarative surface of the robustness layer: population
// churn (flows joining and abandoning mid-run), station faults (sensing
// corruption, crash/recovery), and heterogeneous multi-class workloads.
// ChurnSpec, FaultSpec, and ClassSpec are pure data, resolved through kind
// registries exactly like protocols, arrivals, and jammers, so churn and
// fault processes — built-in or user-registered — drive Scenario and
// SweepSpec JSON (single-channel and cluster alike) and both CLIs.

// Churn is a population-churn process: an extra join stream plus per-packet
// leave slots; see channel.Churn for the contract. Register a kind with
// RegisterChurn to drive it from specs.
type Churn = channel.Churn

// FaultModel injects station faults — sensing corruption and crashes — on
// the engine's observe path; see channel.FaultModel for the contract.
// Register a kind with RegisterFault to drive it from specs.
type FaultModel = channel.FaultModel

// FaultStats counts the faults a run injected; see sim.FaultStats.
type FaultStats = sim.FaultStats

// ClassResult is the per-class accounting block of a multi-class run; see
// sim.ClassResult.
type ClassResult = sim.ClassResult

// ClassDelta is one class's graceful-degradation row — delivered fraction,
// energy, and latency against the fault-free baseline; see sim.ClassDelta.
type ClassDelta = sim.ClassDelta

// DepartureAbandoned is the PacketStats.Departure sentinel of a packet that
// abandoned the system through churn (distinct from -1, an end-of-run
// survivor).
const DepartureAbandoned = sim.DepartureAbandoned

// Built-in churn kinds. The set is open: RegisterChurn adds new kinds that
// resolve everywhere these do.
const (
	// ChurnFlashCrowd injects N extra packets at Slot; Lifetime > 0 gives
	// every packet a fixed patience of Lifetime slots after arrival.
	ChurnFlashCrowd = "flash-crowd"
	// ChurnEpochs abandons every packet still undelivered at the next
	// multiple of Period after its arrival (no joins).
	ChurnEpochs = "epochs"
	// ChurnPoissonJoinLeave injects Poisson(Rate) extra packets per slot
	// (truncated after N) with geometric LeaveRate patience per packet.
	ChurnPoissonJoinLeave = "poisson-join-leave"
)

// ChurnSpec describes a population-churn process as data. The zero value
// means no churn.
type ChurnSpec struct {
	// Kind is one of the Churn* constants or any kind added with
	// RegisterChurn; "" means no churn.
	Kind string `json:"kind,omitempty"`
	// Slot is the flash-crowd join slot.
	Slot int64 `json:"slot,omitempty"`
	// N is the flash-crowd size or the poisson-join-leave join budget.
	N int64 `json:"n,omitempty"`
	// Rate is the poisson-join-leave per-slot join intensity.
	Rate float64 `json:"rate,omitempty"`
	// LeaveRate is the poisson-join-leave per-slot abandon probability
	// (geometric patience; 0 disables leaving).
	LeaveRate float64 `json:"leave_rate,omitempty"`
	// Period is the epochs renewal period.
	Period int64 `json:"period,omitempty"`
	// Lifetime is the flash-crowd fixed patience (<= 0 means packets never
	// leave).
	Lifetime int64 `json:"lifetime,omitempty"`
	// Params carries free-form numeric parameters for registered
	// (non-built-in) kinds. Built-in kinds ignore it.
	Params map[string]float64 `json:"params,omitempty"`
}

// FlashCrowdChurn describes n extra packets joining at slot, each packet
// (base and crowd alike) abandoning lifetime slots after its arrival
// (lifetime <= 0 means packets never abandon).
func FlashCrowdChurn(slot, n, lifetime int64) ChurnSpec {
	return ChurnSpec{Kind: ChurnFlashCrowd, Slot: slot, N: n, Lifetime: lifetime}
}

// EpochChurn describes epoch renewal: every packet still undelivered at the
// next multiple of period after its arrival abandons.
func EpochChurn(period int64) ChurnSpec { return ChurnSpec{Kind: ChurnEpochs, Period: period} }

// PoissonChurn describes Poisson(rate) extra joins per slot (stopping after
// n) with geometric leaveRate patience per packet.
func PoissonChurn(rate float64, n int64, leaveRate float64) ChurnSpec {
	return ChurnSpec{Kind: ChurnPoissonJoinLeave, Rate: rate, N: n, LeaveRate: leaveRate}
}

// Churn constructs the churn process the spec describes, seeded for one
// run, resolving the kind through the churn registry; a nil Churn (zero
// spec) means no churn.
func (c ChurnSpec) Churn(seed uint64) (Churn, error) {
	if c.Kind == "" {
		return nil, nil
	}
	factory, err := churnRegistry.lookup(c.Kind)
	if err != nil {
		return nil, err
	}
	return factory(c, seed)
}

// Built-in fault kinds. The set is open: RegisterFault adds new kinds that
// resolve everywhere these do.
const (
	// FaultSensing corrupts listening stations' observations: false-busy
	// (Empty sensed as Noisy) with probability FalseBusy, false-idle (Noisy
	// sensed as Empty) with probability FalseIdle.
	FaultSensing = "sensing"
	// FaultCrash crashes a station on each non-succeeded access with
	// probability Rate; it loses all protocol state and re-enters cold
	// after Down additional slots.
	FaultCrash = "crash"
	// FaultFlaky combines sensing and crash faults.
	FaultFlaky = "flaky"
)

// FaultSpec describes a station fault model as data. The zero value means
// no faults.
type FaultSpec struct {
	// Kind is one of the Fault* constants or any kind added with
	// RegisterFault; "" means no faults.
	Kind string `json:"kind,omitempty"`
	// FalseBusy is the probability a listener senses an Empty slot as Noisy.
	FalseBusy float64 `json:"false_busy,omitempty"`
	// FalseIdle is the probability a listener senses a Noisy slot as Empty.
	FalseIdle float64 `json:"false_idle,omitempty"`
	// Rate is the per-access crash probability.
	Rate float64 `json:"rate,omitempty"`
	// Down is how many extra slots a crashed station stays down.
	Down int64 `json:"down,omitempty"`
	// Params carries free-form numeric parameters for registered
	// (non-built-in) kinds. Built-in kinds ignore it.
	Params map[string]float64 `json:"params,omitempty"`
}

// SensingFaults describes observation corruption: a listening station
// senses an Empty slot as Noisy with probability falseBusy and a Noisy slot
// as Empty with probability falseIdle.
func SensingFaults(falseBusy, falseIdle float64) FaultSpec {
	return FaultSpec{Kind: FaultSensing, FalseBusy: falseBusy, FalseIdle: falseIdle}
}

// CrashFaults describes crash/recovery injection: every non-succeeded
// access crashes its station with probability rate; the station loses all
// protocol state and re-enters cold after down additional slots.
func CrashFaults(rate float64, down int64) FaultSpec {
	return FaultSpec{Kind: FaultCrash, Rate: rate, Down: down}
}

// FlakyFaults combines sensing and crash faults in one spec.
func FlakyFaults(falseBusy, falseIdle, rate float64, down int64) FaultSpec {
	return FaultSpec{Kind: FaultFlaky, FalseBusy: falseBusy, FalseIdle: falseIdle, Rate: rate, Down: down}
}

// Model constructs the fault model the spec describes, resolving the kind
// through the fault registry; a nil model (zero spec) means no faults.
// Fault models are stateless and reusable across runs, so no seed is
// taken — all randomness comes from the engine's dedicated fault stream at
// injection time.
func (f FaultSpec) Model() (FaultModel, error) {
	if f.Kind == "" {
		return nil, nil
	}
	factory, err := faultRegistry.lookup(f.Kind)
	if err != nil {
		return nil, err
	}
	return factory(f)
}

// ClassSpec is one class of a heterogeneous multi-class workload: its own
// arrival law, protocol, churn, and fault profile, sharing the scenario's
// channel (and jammer) with every other class. See Scenario.Classes.
type ClassSpec struct {
	// Name labels the class in Result.Classes and Result.Degradation.
	// Required, unique within a scenario.
	Name string `json:"name"`
	// Arrivals is the class's packet arrival process. Required.
	Arrivals ArrivalsSpec `json:"arrivals"`
	// Protocol selects the class's protocol (zero value = LSB defaults).
	Protocol ProtocolSpec `json:"protocol,omitzero"`
	// Churn is the class's population churn (zero value = none).
	Churn ChurnSpec `json:"churn,omitzero"`
	// Faults is the class's station fault profile (zero value = none).
	Faults FaultSpec `json:"faults,omitzero"`
}

// ChurnFactory builds the churn process a ChurnSpec describes, seeded for
// one run. Churn processes are single-use — their join stream is consumed
// as it runs — so the factory is called fresh for every run. LeaveSlot must
// be a pure function of (id, arrival) and the spec (see channel.Churn).
type ChurnFactory func(spec ChurnSpec, seed uint64) (Churn, error)

// FaultFactory builds the fault model a FaultSpec describes. Models must be
// stateless apart from spec parameters (see channel.FaultModel): one value
// may serve many runs and channels, so no seed is taken.
type FaultFactory func(spec FaultSpec) (FaultModel, error)

var (
	churnRegistry = &registry[ChurnFactory]{what: "churn"}
	faultRegistry = &registry[FaultFactory]{what: "fault"}
)

// RegisterChurn makes a churn kind resolvable from specs (ParseScenario,
// ParseSweepSpec), exactly like RegisterProtocol does for protocols. Register from an init function;
// duplicates, empty kinds, and nil factories panic.
func RegisterChurn(kind, doc string, factory ChurnFactory) {
	churnRegistry.register(kind, doc, factory, factory == nil)
}

// RegisterFault makes a fault-model kind resolvable from specs, exactly
// like RegisterProtocol does for protocols.
func RegisterFault(kind, doc string, factory FaultFactory) {
	faultRegistry.register(kind, doc, factory, factory == nil)
}

// ChurnKinds returns every registered churn kind with its doc string,
// sorted by kind.
func ChurnKinds() []KindDoc { return churnRegistry.kinds() }

// FaultKinds returns every registered fault-model kind with its doc string,
// sorted by kind.
func FaultKinds() []KindDoc { return faultRegistry.kinds() }

func registerBuiltinChurn() {
	RegisterChurn(ChurnFlashCrowd,
		"n extra packets join at slot; lifetime > 0 gives every packet fixed patience",
		func(c ChurnSpec, _ uint64) (Churn, error) {
			return churn.NewFlashCrowd(c.Slot, c.N, c.Lifetime)
		})
	RegisterChurn(ChurnEpochs,
		"every packet abandons at the next multiple of period after its arrival",
		func(c ChurnSpec, _ uint64) (Churn, error) {
			return churn.NewEpochs(c.Period)
		})
	RegisterChurn(ChurnPoissonJoinLeave,
		"Poisson(rate) joins per slot up to n, geometric leave_rate patience per packet",
		func(c ChurnSpec, seed uint64) (Churn, error) {
			return churn.NewPoissonJoinLeave(c.Rate, c.N, c.LeaveRate, seed^0x6368726e)
		})
}

func registerBuiltinFaults() {
	RegisterFault(FaultSensing,
		"listeners sense Empty as Noisy (false_busy) or Noisy as Empty (false_idle)",
		func(f FaultSpec) (FaultModel, error) {
			return faults.NewSensing(f.FalseBusy, f.FalseIdle)
		})
	RegisterFault(FaultCrash,
		"each non-succeeded access crashes its station with probability rate; cold restart after down slots",
		func(f FaultSpec) (FaultModel, error) {
			return faults.NewCrash(f.Rate, f.Down)
		})
	RegisterFault(FaultFlaky,
		"sensing corruption and crashes combined",
		func(f FaultSpec) (FaultModel, error) {
			return faults.NewFlaky(f.FalseBusy, f.FalseIdle, f.Rate, f.Down)
		})
}

// FaultFree returns a copy of the scenario with every churn and fault spec
// stripped — top-level and per-class — leaving arrivals, protocols, jammer,
// seed, slot cap, and cluster shape untouched. It is the baseline
// RunWithBaseline measures degradation against.
func (sc Scenario) FaultFree() Scenario {
	out := sc.clone()
	out.Churn = ChurnSpec{}
	out.Faults = FaultSpec{}
	for i := range out.Classes {
		out.Classes[i].Churn = ChurnSpec{}
		out.Classes[i].Faults = FaultSpec{}
	}
	return out
}

// RunWithBaseline executes the scenario and its FaultFree counterpart and
// fills Result.Degradation with the per-class deltas against the baseline
// (one whole-run row for classless scenarios, a cluster's merged Result
// included). The two runs share the seed, so the comparison isolates
// exactly the churn and fault effects.
func (sc Scenario) RunWithBaseline() (Result, error) {
	res, err := sc.Run()
	if err != nil {
		return Result{}, err
	}
	base, err := sc.FaultFree().Run()
	if err != nil {
		return Result{}, fmt.Errorf("lowsensing: fault-free baseline: %w", err)
	}
	res.Degradation = sim.DegradationVs(res, base)
	return res, nil
}
