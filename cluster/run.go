package cluster

import (
	"fmt"

	"lowsensing/channel"
	"lowsensing/internal/arrivals"
	"lowsensing/internal/runner"
	"lowsensing/internal/sim"
	"lowsensing/obs"
)

// Run executes one cluster run and returns its merged Result. The run is
// a pure function of cfg: byte-identical at any Workers value.
//
// Two executors implement it. Backlog-oblivious routers (NeedsBacklog
// false) take the pre-routed path: the whole arrival stream is routed up
// front on the calling goroutine, then every channel runs to completion
// as an independent job on an internal/runner pool of Workers —
// embarrassingly parallel. Backlog-aware routers take the
// epoch-synchronized path: all channels are stepped to each arrival slot,
// serially on the calling goroutine, before the router reads live
// backlogs; Workers does not apply. Both paths produce bit-identical
// results for oblivious routers; the in-package differential test pins
// that down.
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
	if cfg.Router.NeedsBacklog() || cfg.forceEpoch {
		return runEpoch(cfg, maxSlots)
	}
	return runPreRouted(cfg, maxSlots)
}

// view implements View. engines is nil in the pre-routed path, where
// Backlog is unavailable by the Router contract (NeedsBacklog false).
type view struct {
	channels int
	routed   []int64
	engines  []*sim.Engine
}

func (v *view) Channels() int       { return v.channels }
func (v *view) Routed(ch int) int64 { return v.routed[ch] }

func (v *view) Backlog(ch int) int64 {
	if v.engines == nil {
		return 0
	}
	return v.engines[ch].Backlog()
}

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

// runPreRouted routes the whole arrival stream up front, then runs every
// channel to completion as one independent job.
func runPreRouted(cfg Config, maxSlots int64) (Result, error) {
	C := cfg.Channels
	v := &view{channels: C, routed: make([]int64, C)}
	// Route the stream into one list of batches in arrival order — an
	// arrival at its channel's last batch slot joins that batch — then
	// split it into the per-channel schedules over one backing array. That
	// costs a few allocations per run where growing C schedules separately
	// cost a few per channel.
	type routedBatch struct {
		ch int
		b  arrivals.TraceBatch
	}
	var routed []routedBatch
	last := make([]int, C) // each channel's last batch in routed, or -1
	for ch := range last {
		last[ch] = -1
	}
	var id int64
	for {
		slot, count, ok := cfg.Arrivals.Next()
		if !ok || slot > maxSlots {
			break
		}
		for i := int64(0); i < count; i++ {
			ch, err := routeOne(&cfg, v, id, slot)
			if err != nil {
				return Result{}, err
			}
			id++
			if j := last[ch]; j >= 0 && routed[j].b.Slot == slot {
				routed[j].b.Count++
			} else {
				last[ch] = len(routed)
				routed = append(routed, routedBatch{ch: ch, b: arrivals.TraceBatch{Slot: slot, Count: 1}})
			}
		}
	}
	perCh := last // reused: batches per channel
	clear(perCh)
	for _, r := range routed {
		perCh[r.ch]++
	}
	backing := make([]arrivals.TraceBatch, len(routed))
	sched := make([][]arrivals.TraceBatch, C)
	off := 0
	for ch, n := range perCh {
		sched[ch] = backing[off : off : off+n]
		off += n
	}
	for _, r := range routed {
		sched[r.ch] = append(sched[r.ch], r.b)
	}

	jobs := make([]runner.Job[sim.Result], C)
	for ch := 0; ch < C; ch++ {
		jobs[ch] = runner.Job[sim.Result]{
			Seed: ChannelSeed(cfg.Seed, ch),
			Run: func(seed uint64) (sim.Result, error) {
				src, err := arrivals.NewTrace(sched[ch])
				if err != nil {
					return sim.Result{}, err
				}
				p, err := channelParams(&cfg, ch, seed, src)
				if err != nil {
					return sim.Result{}, err
				}
				eng, err := sim.NewEngine(p)
				if err != nil {
					return sim.Result{}, err
				}
				res, err := eng.Run()
				if err != nil {
					return sim.Result{}, err
				}
				if p.Recorder != nil {
					if err := obs.Flush(p.Recorder); err != nil {
						return sim.Result{}, err
					}
				}
				return res, nil
			},
		}
	}
	per, err := runner.Run(runner.New(cfg.Workers), jobs)
	if err != nil {
		return Result{}, err
	}
	return merge(per, v.routed), nil
}

// runEpoch drives every channel in lockstep epochs bounded by the global
// arrival slots, so the router reads exact live backlogs. Each epoch steps
// every channel to the arrival slot in index order on the calling
// goroutine, then routes and injects the batch. An epoch is a few events
// spread over all channels, far less work than any cross-goroutine
// barrier would cost, so a backlog-aware run gets its parallelism across
// runs (sweeps, the runner), never across its own channels.
func runEpoch(cfg Config, maxSlots int64) (Result, error) {
	C := cfg.Channels
	engines := make([]*sim.Engine, C)
	recs := make([]obs.Recorder, C)
	for ch := 0; ch < C; ch++ {
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
		slot, count, ok := cfg.Arrivals.Next()
		if !ok || slot > maxSlots {
			break
		}
		// Every channel resolves everything before slot, so the router's
		// Backlog reads are exactly the live backlogs at the moment of
		// arrival.
		for _, e := range engines {
			if err := e.StepTo(slot); err != nil {
				return Result{}, err
			}
		}
		// Route and inject per packet, so later packets of the batch see
		// earlier ones in Backlog.
		for i := int64(0); i < count; i++ {
			ch, err := routeOne(&cfg, v, id, slot)
			if err != nil {
				return Result{}, err
			}
			if err := engines[ch].InjectAt(slot, 1); err != nil {
				return Result{}, err
			}
			id++
		}
	}
	per := make([]sim.Result, C)
	for ch, e := range engines {
		res, err := e.FinishRun()
		if err != nil {
			return Result{}, err
		}
		if r := recs[ch]; r != nil {
			if err := obs.Flush(r); err != nil {
				return Result{}, err
			}
		}
		per[ch] = res
	}
	return merge(per, v.routed), nil
}
