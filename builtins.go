package lowsensing

import (
	"fmt"
	"os"

	"lowsensing/cluster"
	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/internal/jamming"
	"lowsensing/internal/protocols"
)

// The built-in kinds register through exactly the same path as user
// components: there is no privileged spec→constructor switch anywhere, so a
// kind registered by an importing package resolves everywhere the built-ins
// do (ParseScenario, ParseSweepSpec, sweeps, both CLIs).

func init() {
	registerBuiltinArrivals()
	registerBuiltinProtocols()
	registerBuiltinJammers()
	registerBuiltinRouters()
	registerBuiltinChurn()
	registerBuiltinFaults()
}

func registerBuiltinArrivals() {
	RegisterArrivals(ArrivalsBatch,
		"n packets injected at slot 0 — the classic batch instance",
		func(a ArrivalsSpec, _ uint64) (ArrivalSource, error) {
			if a.N <= 0 {
				return nil, fmt.Errorf("lowsensing: batch size must be > 0, got %d", a.N)
			}
			return arrivals.NewBatch(a.N), nil
		})
	RegisterArrivals(ArrivalsBernoulli,
		"one packet per slot with probability rate, stopping after n packets (n <= 0 unbounded)",
		func(a ArrivalsSpec, seed uint64) (ArrivalSource, error) {
			return arrivals.NewBernoulli(a.Rate, a.N, seed)
		})
	RegisterArrivals(ArrivalsPoisson,
		"Poisson(rate) packets per slot, stopping after n packets (n <= 0 unbounded)",
		func(a ArrivalsSpec, seed uint64) (ArrivalSource, error) {
			return arrivals.NewPoisson(a.Rate, a.N, seed)
		})
	RegisterArrivals(ArrivalsQueue,
		"adversarial-queuing bursts: floor(rate*granularity) packets at each of windows window starts",
		func(a ArrivalsSpec, seed uint64) (ArrivalSource, error) {
			return arrivals.NewAQT(a.Granularity, a.Rate, a.Windows, arrivals.AQTBurst, seed)
		})
	RegisterArrivals(ArrivalsFile,
		"replays a recorded slot/count trace from path",
		func(a ArrivalsSpec, _ uint64) (ArrivalSource, error) {
			if a.Path == "" {
				return nil, fmt.Errorf("lowsensing: file arrivals need a path")
			}
			// Scenario.Validate constructs sources, so this runs while
			// parsing spec JSON; refuse non-regular files (FIFOs, devices)
			// whose open or read could block indefinitely.
			fi, err := os.Stat(a.Path)
			if err != nil {
				return nil, err
			}
			if !fi.Mode().IsRegular() {
				return nil, fmt.Errorf("lowsensing: file arrivals path %q is not a regular file", a.Path)
			}
			f, err := os.Open(a.Path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return arrivals.ParseTrace(f)
		})
}

func registerBuiltinProtocols() {
	RegisterProtocol(ProtocolLSB,
		"LOW-SENSING BACKOFF, the paper's algorithm (config: C, WMin, LnPower, Update; zero config = defaults)",
		func(p ProtocolSpec) (StationFactory, error) {
			cfg := p.Config
			if cfg == (Config{}) {
				cfg = DefaultConfig()
			}
			return core.NewFactory(cfg)
		})
	RegisterProtocol(ProtocolBEB,
		"binary exponential backoff, the classic oblivious baseline",
		func(ProtocolSpec) (StationFactory, error) {
			return protocols.NewBEBFactory(2, 0)
		})
	RegisterProtocol(ProtocolMWU,
		"full-sensing multiplicative weights: constant throughput, listens every slot",
		func(ProtocolSpec) (StationFactory, error) {
			return protocols.NewMWUFactory(protocols.DefaultMWUConfig())
		})
	RegisterProtocol(ProtocolSawtooth,
		"fully oblivious sawtooth backoff baseline",
		func(ProtocolSpec) (StationFactory, error) {
			return protocols.NewSawtoothFactory(), nil
		})
	RegisterProtocol(ProtocolAloha,
		"fixed-rate slotted ALOHA (send_prob: per-slot transmission probability)",
		func(p ProtocolSpec) (StationFactory, error) {
			return protocols.NewAlohaFactory(p.SendProb)
		})
	RegisterProtocol(ProtocolPoly,
		"polynomial backoff with window w0*(collisions+1)^alpha (defaults 2, 2)",
		func(p ProtocolSpec) (StationFactory, error) {
			w0, alpha := p.W0, p.Alpha
			if w0 == 0 {
				w0 = 2
			}
			if alpha == 0 {
				alpha = 2
			}
			return protocols.NewPolyFactory(w0, alpha)
		})
	RegisterProtocol(ProtocolGenie,
		"genie-aided ALOHA oracle that knows the exact backlog (throughput ceiling, not realizable)",
		func(ProtocolSpec) (StationFactory, error) {
			return protocols.NewGenieAlohaFactory(), nil
		})
}

func registerBuiltinRouters() {
	RegisterRouter(RouterRandom,
		"assigns each packet to a uniformly random channel",
		func(_ RouterSpec, seed uint64) (Router, error) {
			return cluster.NewRandom(seed), nil
		})
	RegisterRouter(RouterRoundRobin,
		"cycles through channels 0..C-1 in arrival order",
		func(RouterSpec, uint64) (Router, error) {
			return cluster.NewRoundRobin(), nil
		})
	RegisterRouter(RouterLeastBacklog,
		"joins the channel with the fewest live packets (epoch-synchronized execution)",
		func(RouterSpec, uint64) (Router, error) {
			return cluster.NewLeastBacklog(), nil
		})
	RegisterRouter(RouterSticky,
		"hashes a flow key (id % flows; 0 = per-packet) to a fixed channel",
		func(r RouterSpec, seed uint64) (Router, error) {
			return cluster.NewSticky(seed, r.Flows), nil
		})
}

func registerBuiltinJammers() {
	RegisterJammer(JammerRandom,
		"jams each slot independently with probability rate, up to budget jams (0 = unbounded)",
		func(j JammerSpec, seed uint64) (Jammer, error) {
			return jamming.NewRandom(j.Rate, j.Budget, seed^0x6a)
		})
	RegisterJammer(JammerBurst,
		"jams every slot in [from, to)",
		func(j JammerSpec, _ uint64) (Jammer, error) {
			return jamming.NewInterval(j.From, j.To)
		})
	RegisterJammer(JammerReactive,
		"reactive adversary (paper 1.3): jams whenever packet target transmits, up to budget jams",
		func(j JammerSpec, _ uint64) (Jammer, error) {
			return jamming.NewReactiveTargeted(j.Target, j.Budget)
		})
}
