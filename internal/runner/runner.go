// Package runner executes simulation sweeps on a worker pool with
// deterministic per-job seeding.
//
// The harness's experiments are embarrassingly parallel — every (sweep
// point, replication) pair is an independent simulation — but naively
// parallelizing them would break the reproducibility contract: experiment
// tables are regenerated from fixed seeds and must be bit-identical run to
// run. The runner restores that contract under parallelism with three
// rules:
//
//   - every Job carries a seed derived only from (base seed, experiment ID,
//     point index, rep index) via DeriveSeed, never from scheduling order;
//   - results are collected positionally, so the output slice is identical
//     whatever order jobs finish in;
//   - reduction happens on the caller's goroutine (Run returns the ordered
//     slice; Stream delivers results in index order), so aggregation sees a
//     deterministic sequence.
//
// Together these make the output a pure function of the base seed: one
// worker or sixty-four, the tables are byte-identical.
package runner

import (
	"fmt"
	"runtime"
	"sync"

	"lowsensing/prng"
)

// DeriveSeed deterministically derives the seed of one job from the base
// seed and the job's coordinates: the experiment ID, the sweep-point index,
// and the replication index. It chains the SplitMix64 finalizer (a
// bijection on uint64) over the coordinates, so distinct coordinates give
// independent-looking seeds and the mapping never depends on how many
// workers run the sweep or in what order.
func DeriveSeed(base uint64, expID string, point, rep int) uint64 {
	h := prng.Mix64(base ^ 0x6c73622d72756e72) // "lsb-runr": domain-separates runner seeds
	for _, b := range []byte(expID) {
		h = prng.Mix64(h ^ uint64(b))
	}
	h = prng.Mix64(h ^ uint64(point))
	h = prng.Mix64(h ^ uint64(rep))
	return h
}

// Job is one simulation invocation: a deterministic seed plus the work to
// run with it. Run must be safe to call concurrently with other jobs' Run
// functions (jobs share no mutable state in the harness; each builds its
// own engine from the seed).
type Job[T any] struct {
	Seed uint64
	Run  func(seed uint64) (T, error)
}

// Pool is a fixed-size worker pool. The zero value is not usable;
// construct with New.
type Pool struct {
	workers int
}

// New returns a pool running up to workers jobs concurrently. workers <= 0
// selects runtime.GOMAXPROCS(0), i.e. one worker per usable CPU.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency limit.
func (p *Pool) Workers() int { return p.workers }

// Run executes all jobs on the pool and returns their results in job
// order. On error it cancels: no new jobs start after the first failure
// (in-flight jobs finish), and the reported error is the failing job with
// the smallest index, so the error too is deterministic under any
// scheduling. A nil or empty jobs slice returns (nil, nil).
func Run[T any](p *Pool, jobs []Job[T]) ([]T, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	out := make([]T, len(jobs))
	if p.workers == 1 || len(jobs) == 1 {
		for i, j := range jobs {
			r, err := j.Run(j.Seed)
			if err != nil {
				return nil, fmt.Errorf("runner: job %d: %w", i, err)
			}
			out[i] = r
		}
		return out, nil
	}

	var (
		mu       sync.Mutex
		next     int
		firstErr error
		errIdx   int
	)
	workers := p.workers
	if len(jobs) < workers {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || next >= len(jobs) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				r, err := jobs[i].Run(jobs[i].Seed)

				mu.Lock()
				if err != nil {
					if firstErr == nil || i < errIdx {
						firstErr, errIdx = err, i
					}
				} else {
					out[i] = r
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("runner: job %d: %w", errIdx, firstErr)
	}
	return out, nil
}

// windowPerWorker sizes Stream's reorder window: W = windowPerWorker ×
// workers result slots. The window must absorb ordinary jitter — on the
// sweep-grid benchmark (2 workers) a p99 job runs ~5x the median — or
// workers idle behind a slow job. Measured there on a 2-vCPU VM, 5
// alternating pairs: at 4 slots per worker runner utilization was 0.65 and
// a pass took 0.139 s; at 16, 0.71 and 0.123 s, for +0.7 MB peak RSS.
const windowPerWorker = 16

// Stream executes all jobs on the pool and delivers each result to emit in
// strict job order, calling emit from the caller's goroutine as results
// become available. This lets callers aggregate a long sweep (into stats
// accumulators, tables, or files) without holding every result at once.
//
// Memory is O(workers), whatever the job count or durations: results pass
// through a reorder window of W = windowPerWorker × workers slots,
// allocated once. A worker claims job i only while i < want + W, where want
// is the next index to emit, so at most W results are ever parked waiting
// for their turn; a straggler stalls the claims W jobs past it instead of
// letting parked results pile up.
//
// An error from a job or from emit cancels the sweep: no new jobs start,
// in-flight jobs finish, and Stream returns once every worker has stopped.
// Before a job error, emit sees exactly the results below the smallest
// failing index, in order — the same prefix the one-worker path emits — so
// both the error and what was emitted before it are deterministic under any
// scheduling.
func Stream[T any](p *Pool, jobs []Job[T], emit func(i int, r T) error) error {
	if len(jobs) == 0 {
		return nil
	}
	if p.workers == 1 || len(jobs) == 1 {
		for i, j := range jobs {
			r, err := j.Run(j.Seed)
			if err != nil {
				return fmt.Errorf("runner: job %d: %w", i, err)
			}
			if err := emit(i, r); err != nil {
				return err
			}
		}
		return nil
	}

	workers := min(p.workers, len(jobs))
	w := min(windowPerWorker*workers, len(jobs))
	// ring[i%w] holds job i's result from the moment its worker finishes it
	// until the collector emits it. Claims stay below want+w, so two live
	// jobs never share a slot; a worker writes its slot unlocked and
	// publishes it by setting full under mu.
	type slot struct {
		r    T
		err  error
		full bool
	}
	ring := make([]slot, w)
	var (
		mu      sync.Mutex
		room    = sync.NewCond(&mu) // workers: the window moved or the sweep stopped
		ready   = sync.NewCond(&mu) // collector: slot want was filled
		next    int                 // next job to claim
		want    int                 // next job to emit
		stopped bool
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for !stopped && next < len(jobs) && next >= want+w {
					room.Wait()
				}
				if stopped || next >= len(jobs) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				s := &ring[i%w]
				s.r, s.err = jobs[i].Run(jobs[i].Seed)

				mu.Lock()
				s.full = true
				if s.err != nil {
					// Cancel at once, as Run does, rather than when the
					// collector reaches the failure: no new jobs start after
					// the first error. Every job below i is already claimed,
					// so the collector still gets the whole prefix.
					stopped = true
					room.Broadcast()
				}
				if i == want {
					ready.Signal()
				}
				mu.Unlock()
			}
		}()
	}

	// Collect in index order. Job want is always claimed by the time the
	// collector waits on it: claims run in index order and only a stop
	// halts them, and a job error stops claims only past its own index.
	var err error
	mu.Lock()
	for want < len(jobs) {
		s := &ring[want%w]
		for !s.full {
			ready.Wait()
		}
		mu.Unlock()
		if s.err != nil {
			err = fmt.Errorf("runner: job %d: %w", want, s.err)
		} else {
			err = emit(want, s.r)
		}
		mu.Lock()
		if err != nil {
			stopped = true
			room.Broadcast()
			break
		}
		s.full = false
		want++
		room.Signal()
	}
	mu.Unlock()
	wg.Wait()
	return err
}
