package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lowsensing/prng"
)

func TestDeriveSeedDistinct(t *testing.T) {
	// Distinct coordinates must give distinct seeds; identical coordinates
	// identical seeds.
	seen := map[uint64]string{}
	for _, exp := range []string{"E1", "E2", "E1/jam"} {
		for point := 0; point < 8; point++ {
			for rep := 0; rep < 8; rep++ {
				s := DeriveSeed(20240617, exp, point, rep)
				key := fmt.Sprintf("%s/%d/%d", exp, point, rep)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
				}
				seen[s] = key
				if s != DeriveSeed(20240617, exp, point, rep) {
					t.Fatal("DeriveSeed not deterministic")
				}
			}
		}
	}
	if DeriveSeed(1, "E1", 0, 0) == DeriveSeed(2, "E1", 0, 0) {
		t.Fatal("base seed ignored")
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) has no workers")
	}
	if got := New(3).Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
}

// squareJobs builds n jobs whose result is a pure function of (index, seed).
func squareJobs(n int) []Job[uint64] {
	jobs := make([]Job[uint64], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[uint64]{
			Seed: DeriveSeed(99, "test", i, 0),
			Run: func(seed uint64) (uint64, error) {
				return prng.Mix64(seed) ^ uint64(i), nil
			},
		}
	}
	return jobs
}

func TestRunOrderedAndDeterministic(t *testing.T) {
	jobs := squareJobs(100)
	serial, err := Run(New(1), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 100 {
		t.Fatalf("got %d results", len(serial))
	}
	for _, workers := range []int{2, 3, 7, 16} {
		parallel, err := Run(New(workers), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, parallel[i], serial[i])
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	out, err := Run[int](New(4), nil)
	if err != nil || out != nil {
		t.Fatalf("Run(nil) = %v, %v", out, err)
	}
}

func TestRunCancelsOnError(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	jobs := make([]Job[int], 1000)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(uint64) (int, error) {
			started.Add(1)
			if i == 3 {
				return 0, boom
			}
			return i, nil
		}}
	}
	_, err := Run(New(4), jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "job 3") {
		t.Fatalf("err = %v, want job index 3", err)
	}
	// Cancel-on-first-error: nowhere near all 1000 jobs may have started.
	if n := started.Load(); n > 100 {
		t.Fatalf("%d jobs started after an early failure", n)
	}
}

func TestRunReportsSmallestFailingIndex(t *testing.T) {
	// Several jobs fail; the reported index must be the smallest whatever
	// order workers hit them in.
	jobs := make([]Job[int], 64)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(uint64) (int, error) {
			if i%2 == 1 {
				// Late odd failures: the smallest failing index is 1.
				time.Sleep(time.Duration(i) * time.Microsecond)
				return 0, fmt.Errorf("fail %d", i)
			}
			return i, nil
		}}
	}
	for trial := 0; trial < 10; trial++ {
		_, err := Run(New(8), jobs)
		if err == nil {
			t.Fatal("no error")
		}
		if !strings.Contains(err.Error(), "job 1:") {
			t.Fatalf("trial %d: err = %v, want smallest failing index 1", trial, err)
		}
	}
}

func TestStreamInOrder(t *testing.T) {
	jobs := squareJobs(200)
	want, err := Run(New(1), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		var got []uint64
		err := Stream(New(workers), jobs, func(i int, r uint64) error {
			if i != len(got) {
				t.Fatalf("workers=%d: emit index %d, want %d", workers, i, len(got))
			}
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: emitted %d of %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result %d differs", workers, i)
			}
		}
	}
}

func TestStreamJobError(t *testing.T) {
	boom := errors.New("boom")
	jobs := make([]Job[int], 50)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(uint64) (int, error) {
			if i == 10 {
				return 0, boom
			}
			return i, nil
		}}
	}
	var emitted int
	err := Stream(New(4), jobs, func(i int, _ int) error {
		if i >= 10 {
			t.Fatalf("emitted index %d past the failure", i)
		}
		emitted++
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if emitted > 10 {
		t.Fatalf("emitted %d results past failure", emitted)
	}
}

func TestStreamEmitError(t *testing.T) {
	stop := errors.New("stop")
	jobs := squareJobs(50)
	var emitted int
	err := Stream(New(4), jobs, func(i int, _ uint64) error {
		if i == 5 {
			return stop
		}
		emitted++
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want stop", err)
	}
	if emitted != 5 {
		t.Fatalf("emitted %d, want 5", emitted)
	}
}

func TestStreamEmpty(t *testing.T) {
	if err := Stream[int](New(4), nil, func(int, int) error {
		t.Fatal("emit called")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDeriveSeedGolden freezes the seed mapping: these values are baked
// into every recorded experiment table (and the checked-in golden tables),
// so the derivation can never drift silently. If this test fails, the
// change redefines every experiment's randomness — that is almost never
// intended.
func TestDeriveSeedGolden(t *testing.T) {
	golden := []struct {
		base  uint64
		expID string
		point int
		rep   int
		want  uint64
	}{
		{20240617, "E1", 0, 0, 0x7abb0e46608fa1a4},
		{20240617, "E1", 0, 1, 0xd4b382eeb7a34444},
		{20240617, "E1", 1, 0, 0xa3b11605d534a166},
		{20240617, "E15/base", 0, 0, 0x19260a02dd4ffba7},
		{20240617, "sweep", 3, 2, 0x7130bdf07543a9e6},
		{1, "A1", 7, 4, 0x2b1e261c93996f9f},
	}
	for _, g := range golden {
		if got := DeriveSeed(g.base, g.expID, g.point, g.rep); got != g.want {
			t.Errorf("DeriveSeed(%d, %q, %d, %d) = 0x%016x, want 0x%016x — the seed mapping drifted",
				g.base, g.expID, g.point, g.rep, got, g.want)
		}
	}
}

// TestStreamCancelsOnError mirrors TestRunCancelsOnError for the streaming
// path: after the first failure no new jobs may start (in-flight jobs
// finish), and the error is the failing job's.
func TestStreamCancelsOnError(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	jobs := make([]Job[int], 1000)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(uint64) (int, error) {
			started.Add(1)
			if i == 3 {
				return 0, boom
			}
			return i, nil
		}}
	}
	var emitted atomic.Int64
	err := Stream(New(4), jobs, func(i int, _ int) error {
		emitted.Add(1)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "job 3") {
		t.Fatalf("err = %v, want job index 3", err)
	}
	// Cancel-on-first-error: nowhere near all 1000 jobs may have started,
	// and exactly the results below the failure index were emitted.
	if n := started.Load(); n > 100 {
		t.Fatalf("%d jobs started after an early failure", n)
	}
	if n := emitted.Load(); n != 3 {
		t.Fatalf("%d results emitted before the failure at job 3, want 3", n)
	}
}

// TestStreamEmitErrorStopsJobs: an emit error must also stop the workers,
// not just the reorder loop. A gate holds jobs past the first batch until
// after the emit error has set the stopped flag, so the assertion is free
// of scheduling luck: any job claimed once the gate opens would prove the
// flag was ignored.
func TestStreamEmitErrorStopsJobs(t *testing.T) {
	stop := errors.New("stop")
	gate := make(chan struct{})
	var started atomic.Int64
	jobs := make([]Job[int], 1000)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(uint64) (int, error) {
			started.Add(1)
			if i >= 8 {
				<-gate
			}
			return i, nil
		}}
	}
	err := Stream(New(4), jobs, func(i int, _ int) error {
		if i == 0 {
			// Release the gated workers well after the collector has
			// processed this error and flagged cancellation.
			time.AfterFunc(100*time.Millisecond, func() { close(gate) })
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want stop", err)
	}
	// Claimed before the flag: the 8 ungated jobs plus at most one gated
	// job per worker. Anything beyond means workers kept claiming.
	if n := started.Load(); n > 12 {
		t.Fatalf("%d jobs started after emit aborted the sweep", n)
	}
}

// TestStreamDeterministicPrefix: with job durations jittered so results
// finish far out of order, a failing job k must leave emit having seen
// exactly indices 0..k-1, in order, at every worker count — the same
// prefix the one-worker path emits.
func TestStreamDeterministicPrefix(t *testing.T) {
	const n, k = 200, 57
	boom := errors.New("boom")
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(uint64) (int, error) {
			time.Sleep(time.Duration(prng.Mix64(uint64(i))%200) * time.Microsecond)
			if i == k {
				return 0, boom
			}
			return i, nil
		}}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 5; trial++ {
			var got []int
			err := Stream(New(workers), jobs, func(i int, r int) error {
				if r != i {
					t.Fatalf("workers=%d: emit(%d, %d)", workers, i, r)
				}
				got = append(got, i)
				return nil
			})
			if !errors.Is(err, boom) || !strings.Contains(err.Error(), fmt.Sprintf("job %d:", k)) {
				t.Fatalf("workers=%d: err = %v, want job %d's boom", workers, err, k)
			}
			if len(got) != k {
				t.Fatalf("workers=%d trial %d: emitted %d results, want %d", workers, trial, len(got), k)
			}
			for i, g := range got {
				if g != i {
					t.Fatalf("workers=%d trial %d: emit #%d was job %d", workers, trial, i, g)
				}
			}
		}
	}
}

// TestStreamWindowBoundsClaims: while job 0 straggles, no job at or past
// the window W may start, and at no point are more than W results
// finished but not yet emitted.
func TestStreamWindowBoundsClaims(t *testing.T) {
	const workers, n = 4, 400
	w := windowPerWorker * workers
	release := make(chan struct{})
	var started, finished, emitted, maxStarted atomic.Int64
	maxStarted.Store(-1)
	var overfull atomic.Bool
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func(uint64) (int, error) {
			started.Add(1)
			for {
				m := maxStarted.Load()
				if int64(i) <= m || maxStarted.CompareAndSwap(m, int64(i)) {
					break
				}
			}
			if i == 0 {
				<-release
			}
			if finished.Add(1)-emitted.Load() > int64(w) {
				overfull.Store(true)
			}
			return i, nil
		}}
	}
	done := make(chan error, 1)
	go func() {
		done <- Stream(New(workers), jobs, func(i int, r int) error {
			if r != i {
				t.Errorf("emit(%d, %d)", i, r)
			}
			emitted.Add(1)
			return nil
		})
	}()
	// Jobs 0..W-1 start; the window is then full behind job 0.
	waitFor(t, func() bool { return started.Load() == int64(w) && finished.Load() == int64(w-1) })
	time.Sleep(50 * time.Millisecond)
	if s, m := started.Load(), maxStarted.Load(); s != int64(w) || m != int64(w-1) {
		t.Fatalf("while job 0 straggles: %d jobs started, highest index %d; want %d and %d", s, m, w, w-1)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if emitted.Load() != n {
		t.Fatalf("emitted %d of %d", emitted.Load(), n)
	}
	if overfull.Load() {
		t.Fatalf("more than W = %d results were parked at once", w)
	}
}

// TestStreamFullWindowErrors: a job error and an emit error must each end
// the sweep while every other worker waits on a full window behind a
// straggling job 0 — the cancel path must wake them.
func TestStreamFullWindowErrors(t *testing.T) {
	const workers, n = 4, 400
	w := windowPerWorker * workers
	boom := errors.New("boom")
	for _, tc := range []struct {
		name    string
		jobErr  error // job 0's error
		emitErr error // emit's error on job 0
	}{
		{"job error", boom, nil},
		{"emit error", nil, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			var finished atomic.Int64
			jobs := make([]Job[int], n)
			for i := range jobs {
				i := i
				jobs[i] = Job[int]{Run: func(uint64) (int, error) {
					defer finished.Add(1)
					if i == 0 {
						<-release
						return 0, tc.jobErr
					}
					return i, nil
				}}
			}
			var emitted atomic.Int64
			done := make(chan error, 1)
			go func() {
				done <- Stream(New(workers), jobs, func(int, int) error {
					emitted.Add(1)
					return tc.emitErr
				})
			}()
			waitFor(t, func() bool { return finished.Load() == int64(w-1) })
			time.Sleep(20 * time.Millisecond) // let the other workers block on the window
			close(release)
			select {
			case err := <-done:
				if !errors.Is(err, boom) {
					t.Fatalf("err = %v, want boom", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Stream deadlocked on a full window")
			}
			if got := finished.Load(); got != int64(w) {
				t.Fatalf("%d jobs ran, want the %d in the window", got, w)
			}
			want := int64(0)
			if tc.emitErr != nil {
				want = 1
			}
			if got := emitted.Load(); got != want {
				t.Fatalf("emit called %d times, want %d", got, want)
			}
		})
	}
}

// waitFor polls cond until it holds, failing the test after 10 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the sweep to reach the expected state")
		}
		time.Sleep(time.Millisecond)
	}
}
