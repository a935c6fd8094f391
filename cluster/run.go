package cluster

import (
	"fmt"
	"sync"

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
// as an independent job on an internal/runner pool — embarrassingly
// parallel. Backlog-aware routers take the epoch-synchronized path: all
// channels are stepped to each arrival slot (sharded across persistent
// workers behind a barrier) before the router reads live backlogs. Both
// paths produce bit-identical results for oblivious routers; the
// in-package differential test pins that down.
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
		Seed:            seed,
		Arrivals:        src,
		NewStation:      cfg.NewStation,
		MaxSlots:        cfg.MaxSlots,
		Lifetime:        cfg.Lifetime,
		Faults:          cfg.Faults,
		ReuseStations:   cfg.ReuseStations,
		DisableBatching: cfg.DisableBatching,
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
// arrival slots, so the router reads exact live backlogs. Channels are
// sharded round-robin across W persistent workers; every epoch is a
// step-all barrier, then the coordinator routes and injects the batch.
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

	x := newEpochExec(engines, recs, cfg.Workers)
	defer x.close()

	var id int64
	for {
		slot, count, ok := cfg.Arrivals.Next()
		if !ok || slot > maxSlots {
			break
		}
		// Barrier: every channel resolves everything before slot, so the
		// router's Backlog reads are exactly what a serial execution
		// would see at the moment of arrival.
		if err := x.round(epochCmd{limit: slot}); err != nil {
			return Result{}, err
		}
		// Route and inject per packet, so later packets of the batch see
		// earlier ones in Backlog — the workers are parked at the
		// barrier, so the coordinator owns the engines here.
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
	if err := x.round(epochCmd{finish: true}); err != nil {
		return Result{}, err
	}
	return merge(x.results, v.routed), nil
}

// epochCmd is one barrier round's instruction: step every channel to
// limit, or finish every channel's run.
type epochCmd struct {
	limit  int64
	finish bool
}

// epochExec shards C channels round-robin across W persistent worker
// goroutines. round broadcasts one command and waits for all workers —
// with W == 1 it runs inline on the coordinator, which is the serial
// reference execution.
type epochExec struct {
	engines []*sim.Engine
	recs    []obs.Recorder
	results []sim.Result
	W       int
	cmds    []chan epochCmd
	wg      sync.WaitGroup
	errs    []error
}

func newEpochExec(engines []*sim.Engine, recs []obs.Recorder, workers int) *epochExec {
	W := runner.New(workers).Workers()
	if W > len(engines) {
		W = len(engines)
	}
	x := &epochExec{
		engines: engines,
		recs:    recs,
		results: make([]sim.Result, len(engines)),
		W:       W,
	}
	if W > 1 {
		x.cmds = make([]chan epochCmd, W)
		x.errs = make([]error, W)
		for w := 0; w < W; w++ {
			x.cmds[w] = make(chan epochCmd)
			go x.worker(w)
		}
	}
	return x
}

func (x *epochExec) worker(w int) {
	for c := range x.cmds[w] {
		for ch := w; ch < len(x.engines); ch += x.W {
			if x.errs[w] == nil {
				x.errs[w] = x.apply(ch, c)
			}
		}
		x.wg.Done()
	}
}

// apply runs one command on one channel. Engines are deterministic, so
// any error here is a deterministic function of the config too.
func (x *epochExec) apply(ch int, c epochCmd) error {
	if !c.finish {
		return x.engines[ch].StepTo(c.limit)
	}
	res, err := x.engines[ch].FinishRun()
	if err != nil {
		return err
	}
	if r := x.recs[ch]; r != nil {
		if err := obs.Flush(r); err != nil {
			return err
		}
	}
	x.results[ch] = res
	return nil
}

func (x *epochExec) round(c epochCmd) error {
	if x.W <= 1 {
		for ch := range x.engines {
			if err := x.apply(ch, c); err != nil {
				return err
			}
		}
		return nil
	}
	x.wg.Add(x.W)
	for w := 0; w < x.W; w++ {
		x.cmds[w] <- c
	}
	x.wg.Wait()
	for w := 0; w < x.W; w++ {
		if x.errs[w] != nil {
			return x.errs[w]
		}
	}
	return nil
}

// close releases the worker goroutines. It is not idempotent (a second
// call would close closed channels), so callers defer it exactly once.
func (x *epochExec) close() {
	for _, c := range x.cmds {
		close(c)
	}
}
