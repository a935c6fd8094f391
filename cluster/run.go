package cluster

import (
	"fmt"

	"lowsensing/channel"
	"lowsensing/internal/arrivals"
	"lowsensing/internal/sim"
	"lowsensing/obs"
)

// Run executes one cluster run and returns its merged Result. The run is
// a pure function of cfg, for every router: all channels are stepped in
// lockstep epochs bounded by the global arrival slots, serially on the
// calling goroutine, so Run starts no goroutines and the router reads exact
// live backlogs at every decision.
//
// The global arrival source is consumed on the calling goroutine and is
// never engine-bound: adaptive sources that Bind to a single engine have
// no meaningful cluster-wide analogue. Arrivals after MaxSlots are
// dropped, exactly as a single-channel run would leave them uninjected.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	maxSlots := cfg.MaxSlots
	if maxSlots == 0 {
		maxSlots = sim.DefaultMaxSlots
	}
	return runEpoch(cfg, maxSlots)
}

// view implements View over the live engines.
type view struct {
	channels int
	routed   []int64
	engines  []*sim.Engine
}

func (v *view) Channels() int        { return v.channels }
func (v *view) Routed(ch int) int64  { return v.routed[ch] }
func (v *view) Backlog(ch int) int64 { return v.engines[ch].Backlog() }

// channelParams builds channel ch's engine params from the shared config
// and the channel's derived seed.
func channelParams(cfg *Config, ch int, seed uint64, src channel.ArrivalSource) (sim.Params, error) {
	p := sim.Params{
		Seed:          seed,
		Arrivals:      src,
		NewStation:    cfg.NewStation,
		MaxSlots:      cfg.MaxSlots,
		Lifetime:      cfg.Lifetime,
		Faults:        cfg.Faults,
		ReuseStations: cfg.ReuseStations,
	}
	if cfg.NewJammer != nil {
		j, err := cfg.NewJammer(ch, seed)
		if err != nil {
			return sim.Params{}, fmt.Errorf("cluster: channel %d jammer: %w", ch, err)
		}
		p.Jammer = j
	}
	if cfg.NewRecorder != nil {
		p.Recorder = cfg.NewRecorder(ch)
	}
	return p, nil
}

// routeOne asks the router for packet id's channel and validates the
// answer.
func routeOne(cfg *Config, v *view, id, slot int64) (int, error) {
	ch := cfg.Router.Route(id, slot, v)
	if ch < 0 || ch >= v.channels {
		return 0, fmt.Errorf("cluster: router returned channel %d for packet %d (cluster has %d channels)",
			ch, id, v.channels)
	}
	v.routed[ch]++
	return ch, nil
}

// runEpoch drives every channel in lockstep epochs bounded by the global
// arrival slots, so the router reads exact live backlogs. Each epoch steps
// every channel to the arrival slot in index order on the calling
// goroutine, then routes and injects the batch. An epoch is a few events
// spread over all channels, far less work than any cross-goroutine
// barrier would cost, so a cluster run gets its parallelism across runs
// (sweeps, the runner), never across its own channels.
//
// Stepping runs caller-supplied code (stations, jammers, fault models,
// recorders, the router) on the calling goroutine, so a panic in it is
// recovered into this run's error, naming the slot being stepped and the
// channel when one is involved.
func runEpoch(cfg Config, maxSlots int64) (_ Result, err error) {
	C := cfg.Channels
	ch, slot := -1, int64(0) // what is being stepped, for the panic error
	defer func() {
		if v := recover(); v != nil {
			if ch >= 0 {
				err = fmt.Errorf("cluster: panic on channel %d stepping to slot %d: %v", ch, slot, v)
			} else {
				err = fmt.Errorf("cluster: panic stepping to slot %d: %v", slot, v)
			}
		}
	}()
	engines := make([]*sim.Engine, C)
	recs := make([]obs.Recorder, C)
	for ch = 0; ch < C; ch++ {
		src, err := arrivals.NewTrace(nil)
		if err != nil {
			return Result{}, err
		}
		p, err := channelParams(&cfg, ch, ChannelSeed(cfg.Seed, ch), src)
		if err != nil {
			return Result{}, err
		}
		recs[ch] = p.Recorder
		if engines[ch], err = sim.NewEngine(p); err != nil {
			return Result{}, err
		}
	}
	v := &view{channels: C, routed: make([]int64, C), engines: engines}

	var id int64
	for {
		ch = -1
		next, count, ok := cfg.Arrivals.Next()
		if !ok || next > maxSlots {
			break
		}
		slot = next
		// Every channel resolves everything before slot, so the router's
		// Backlog reads are exactly the live backlogs at the moment of
		// arrival.
		for ch = 0; ch < C; ch++ {
			if err := engines[ch].StepTo(slot); err != nil {
				return Result{}, err
			}
		}
		// Route and inject per packet, so later packets of the batch see
		// earlier ones in Backlog.
		for i := int64(0); i < count; i++ {
			ch = -1
			to, err := routeOne(&cfg, v, id, slot)
			if err != nil {
				return Result{}, err
			}
			ch = to
			if err := engines[ch].InjectAt(slot, 1); err != nil {
				return Result{}, err
			}
			id++
		}
	}
	// FinishRun steps each channel on to its end, at most maxSlots.
	slot = maxSlots
	per := make([]sim.Result, C)
	for ch = 0; ch < C; ch++ {
		if per[ch], err = engines[ch].FinishRun(); err != nil {
			return Result{}, err
		}
		if r := recs[ch]; r != nil {
			if err := obs.Flush(r); err != nil {
				return Result{}, err
			}
		}
	}
	return merge(per, v.routed), nil
}
