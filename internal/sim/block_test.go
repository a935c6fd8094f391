package sim

import (
	"reflect"
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/internal/faults"
	"lowsensing/prng"
)

// farStation listens forever with a fixed gap between accesses, so a mix
// of gaps parks events at every wheel level and in the overflow heap.
type farStation struct{ gap int64 }

func (s farStation) ScheduleNext(from int64, _ *prng.Source) (int64, bool) {
	return from + s.gap, false
}

func (farStation) Observe(Observation) {}

// dirtyBlocks returns fixed-size blocks left behind by engines stopped
// mid-run: one with events pending at wheel level 0, every upper level and
// the overflow heap, and one from a 20k-packet batch whose same-slot
// fan-in filled the drain and whose departures filled the accumulators.
func dirtyBlocks(t *testing.T) map[string]*engineBlock {
	t.Helper()
	gaps := []int64{3, 2000, 100_000, 5_000_000, 1 << 29}
	far, err := NewEngine(Params{
		Seed:     1,
		Arrivals: &traceSource{},
		NewStation: func(id int64, _ *prng.Source) Station {
			return farStation{gap: gaps[id%int64(len(gaps))]}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := far.StepTo(0); err != nil {
		t.Fatal(err)
	}
	if err := far.InjectAt(0, 50); err != nil {
		t.Fatal(err)
	}
	if err := far.StepTo(9000); err != nil {
		t.Fatal(err)
	}
	w := &far.events
	if w.occ0sum == 0 || w.occUp[0] == 0 || w.occUp[1] == 0 || w.occUp[2] == 0 || w.over.Len() == 0 {
		t.Fatalf("far engine left a level empty: occ0sum %x occUp %x overflow %d", w.occ0sum, w.occUp, w.over.Len())
	}

	fan, err := NewEngine(Params{
		Seed:          2,
		Arrivals:      arrivals.NewBatch(20_000),
		NewStation:    core.MustFactory(core.Default()),
		ReuseStations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fan.StepTo(30_000); err != nil {
		t.Fatal(err)
	}
	if cap(fan.events.drainKeys) < 1000 || fan.block.energy.Packets() == 0 || fan.events.Len() == 0 {
		t.Fatalf("fan-in engine did not dirty its block: drain cap %d, packets %d, pending %d",
			cap(fan.events.drainKeys), fan.block.energy.Packets(), fan.events.Len())
	}
	// The stopped engines are dropped here, never finished, so neither
	// block went back to the pool.
	return map[string]*engineBlock{"all levels": far.block, "fan-in": fan.block}
}

// blockScenario is one fixed run: fresh params (sources and fault models
// are stateful) and how to drive the engine to its Result.
type blockScenario struct {
	name   string
	params func(t *testing.T) Params
	drive  func(e *Engine) (Result, error)
}

func runToEnd(e *Engine) (Result, error) { return e.Run() }

func blockScenarios() []blockScenario {
	lsb := core.MustFactory(core.Default())
	bernoulli := func(t *testing.T, rate float64, n int64, seed uint64) ArrivalSource {
		src, err := arrivals.NewBernoulli(rate, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	return []blockScenario{
		{"batch", func(*testing.T) Params {
			return Params{Seed: 7, Arrivals: arrivals.NewBatch(300), NewStation: lsb, ReuseStations: true}
		}, runToEnd},
		{"truncated batch", func(*testing.T) Params {
			return Params{Seed: 8, Arrivals: arrivals.NewBatch(300), NewStation: lsb, ReuseStations: true, MaxSlots: 400}
		}, runToEnd},
		{"bernoulli jammed", func(t *testing.T) Params {
			return Params{Seed: 9, Arrivals: bernoulli(t, 0.1, 400, 3), NewStation: lsb, Jammer: hashJam{salt: 5}, ReuseStations: true}
		}, runToEnd},
		{"churn faults", func(t *testing.T) Params {
			flaky, err := faults.NewFlaky(0.1, 0.05, 0.01, 8)
			if err != nil {
				t.Fatal(err)
			}
			return Params{
				Seed:          10,
				Arrivals:      bernoulli(t, 0.2, 300, 4),
				NewStation:    lsb,
				ReuseStations: true,
				Lifetime:      func(id, arrival int64) int64 { return arrival + 4 + id%32 },
				Faults:        flaky,
			}
		}, runToEnd},
		{"stepped", func(t *testing.T) Params {
			return stepParams(t, &traceSource{})
		}, func(e *Engine) (Result, error) {
			for _, b := range stepTrace {
				if err := e.StepTo(b[0]); err != nil {
					return Result{}, err
				}
				if err := e.InjectAt(b[0], b[1]); err != nil {
					return Result{}, err
				}
			}
			return e.FinishRun()
		}},
	}
}

// runOnBlock runs sc on an engine that uses blk as its fixed-size block,
// checking that Stats on the finished engine matches Result.EngineStats
// and that the block was released.
func runOnBlock(t *testing.T, sc blockScenario, blk *engineBlock) Result {
	t.Helper()
	e, err := NewEngine(sc.params(t))
	if err != nil {
		t.Fatal(err)
	}
	e.attach(blk) // NewEngine schedules and folds nothing, so the swap is clean
	r, err := sc.drive(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats(); got != r.EngineStats {
		t.Fatalf("%s: Stats() after the run = %+v, Result.EngineStats = %+v", sc.name, got, r.EngineStats)
	}
	if e.block != nil {
		t.Fatalf("%s: the engine kept its block after the run", sc.name)
	}
	return r
}

// TestRecycledBlockBitIdentical: runs on a block recycled from a stopped
// engine — stale headers at every wheel level, a filled drain, nonzero
// accumulators — give Results bit-identical to runs on a fresh block,
// EngineStats included.
func TestRecycledBlockBitIdentical(t *testing.T) {
	dirty := dirtyBlocks(t)
	var sawAbandon, sawCrash, sawTruncated bool
	for _, sc := range blockScenarios() {
		want := runOnBlock(t, sc, new(engineBlock))
		sawAbandon = sawAbandon || want.Abandoned > 0
		sawCrash = sawCrash || want.Faults.Crashes > 0
		sawTruncated = sawTruncated || want.Truncated
		for name, blk := range dirty {
			copied := *blk // every scenario starts from the same stale bytes
			if got := runOnBlock(t, sc, &copied); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on the %q block differs from a fresh block:\n got %+v\nwant %+v", sc.name, name, got, want)
			}
		}
	}
	if !sawAbandon || !sawCrash || !sawTruncated {
		t.Fatalf("scenarios missed a path: abandon %v, crash %v, truncation %v", sawAbandon, sawCrash, sawTruncated)
	}
}

// TestPooledEnginesBitIdentical runs every scenario twice in a row through
// NewEngine's own pool path, after a dirty run returned its block, and
// against a fresh block: all three Results must agree.
func TestPooledEnginesBitIdentical(t *testing.T) {
	for _, sc := range blockScenarios() {
		want := runOnBlock(t, sc, new(engineBlock))
		for i := 0; i < 2; i++ {
			e, err := NewEngine(sc.params(t))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.drive(e)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, pooled run %d differs from a fresh block:\n got %+v\nwant %+v", sc.name, i, got, want)
			}
		}
	}
}
