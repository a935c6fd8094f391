package sim

import (
	"math"
	"strconv"
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
)

// schedQueue lets the scheduler benchmarks drive the timing wheel and the
// heap baseline through the engine's access pattern behind one interface.
type schedQueue interface {
	Push(event)
	popAtMost(limit int64) (event, bool)
}

// heapQueue adapts the reference 4-ary heap (the previous scheduler, now
// test-only) to the wheel's popAtMost surface.
type heapQueue struct{ q eventQueue }

func (h *heapQueue) Push(ev event) { h.q.Push(ev) }
func (h *heapQueue) popAtMost(limit int64) (event, bool) {
	if h.q.Len() == 0 || h.q.Min().slot > limit {
		return event{}, false
	}
	return h.q.Pop(), true
}

// BenchmarkEngineHotPath measures the engine's steady-state per-packet cost
// end to end: arrivals injected, stations scheduled through the event
// queue, slots resolved, packets departed and their statistics folded into
// the streaming accumulators. ns/op is per packet (the engine simulates
// exactly b.N packets per run); run with -benchmem to see allocations per
// packet, which the zero-allocation lifecycle keeps at 0 in steady state
// (the engine allocates O(peak backlog), never O(packets)).
//
// Two workload shapes bracket the queue's behavior:
//
//   - lsb/bernoulli: LOW-SENSING BACKOFF under Bernoulli(0.15) arrivals —
//     a long steady stream with a small backlog, the streaming-scale case.
//   - lsb/batch: LOW-SENSING BACKOFF on one batch of b.N packets — a large
//     backlog drained at constant throughput, the deep-queue case.
//
// The events/sec metric counts resolved channel accesses (one per event
// popped from the scheduler) per wall-clock second.
func BenchmarkEngineHotPath(b *testing.B) {
	bench := func(b *testing.B, e *Engine, packets int64) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Arrived != packets {
			b.Fatalf("arrived %d packets, want %d", res.Arrived, packets)
		}
		events := res.Energy.Accesses.Sum
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		b.ReportMetric(float64(events)/float64(packets), "accesses/packet")
	}

	// queue/*: the scheduler alone, driven exactly the way resolveSlot
	// drives it — drain every event of the minimum slot, then reschedule
	// each survivor to a pseudorandom future slot. ns/op is per event.
	// The wheel's win over the heap baseline here is the tentpole claim.
	// The loop is written once per concrete queue type, mirroring the
	// engine, which holds the wheel as a concrete struct field: interface
	// dispatch in the harness would charge both queues an indirection the
	// engine never pays.
	wheelBench := func(live int) func(b *testing.B) {
		return func(b *testing.B) {
			q := &timingWheel{wheelHeads: new(wheelHeads)}
			state := uint64(0x9e3779b97f4a7c15)
			for i := 0; i < live; i++ {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				q.Push(event{slot: int64(state % 1024), id: int64(i), idx: int32(i)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				ev, ok := q.popAtMost(math.MaxInt64)
				if !ok {
					b.Fatal("queue drained")
				}
				t := ev.slot
				for ok {
					state ^= state << 13
					state ^= state >> 7
					state ^= state << 17
					q.Push(event{slot: t + 1 + int64(state%1024), id: ev.id, idx: ev.idx})
					n++
					ev, ok = q.popAtMost(t)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		}
	}
	heapBench := func(live int) func(b *testing.B) {
		return func(b *testing.B) {
			q := &heapQueue{}
			state := uint64(0x9e3779b97f4a7c15)
			for i := 0; i < live; i++ {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				q.Push(event{slot: int64(state % 1024), id: int64(i), idx: int32(i)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				ev, ok := q.popAtMost(math.MaxInt64)
				if !ok {
					b.Fatal("queue drained")
				}
				t := ev.slot
				for ok {
					state ^= state << 13
					state ^= state >> 7
					state ^= state << 17
					q.Push(event{slot: t + 1 + int64(state%1024), id: ev.id, idx: ev.idx})
					n++
					ev, ok = q.popAtMost(t)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		}
	}
	for _, live := range []int{256, 4096, 65536} {
		b.Run("queue/wheel/live="+strconv.Itoa(live), wheelBench(live))
		b.Run("queue/heap/live="+strconv.Itoa(live), heapBench(live))
	}

	b.Run("lsb/bernoulli", func(b *testing.B) {
		src, err := arrivals.NewBernoulli(0.15, int64(b.N), 42)
		if err != nil {
			b.Fatal(err)
		}
		e, err := NewEngine(Params{
			Seed:          1,
			Arrivals:      src,
			NewStation:    core.MustFactory(core.Default()),
			ReuseStations: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		bench(b, e, int64(b.N))
	})

	b.Run("lsb/batch", func(b *testing.B) {
		e, err := NewEngine(Params{
			Seed:          1,
			Arrivals:      arrivals.NewBatch(int64(b.N)),
			NewStation:    core.MustFactory(core.Default()),
			ReuseStations: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		bench(b, e, int64(b.N))
	})
}
