package simref

import (
	"testing"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
	"lowsensing/internal/sim"
)

// TestDifferentialSameSlotBatches: batches that share a slot all arrive
// before that slot resolves, so their slot-t accessors contend in one slot
// and the slot resolves (and is recorded) once. The ArrivalSource contract
// allows repeated slots, and arrivals.Merge emits them whenever two of its
// sources fire in the same slot.
func TestDifferentialSameSlotBatches(t *testing.T) {
	diff(t, "repeated-trace", func() sim.Params {
		src, err := arrivals.NewTrace([]arrivals.TraceBatch{
			{Slot: 0, Count: 40}, {Slot: 0, Count: 40}, {Slot: 90, Count: 8}, {Slot: 90, Count: 3}, {Slot: 90, Count: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Params{
			Seed:       4,
			Arrivals:   src,
			NewStation: core.MustFactory(core.Default()),
			MaxSlots:   1 << 16,
		}
	})
	diff(t, "merged-batches", func() sim.Params {
		return sim.Params{
			Seed:       6,
			Arrivals:   arrivals.NewMerge(arrivals.NewBatch(50), arrivals.NewBatch(50)),
			NewStation: core.MustFactory(core.Default()),
			MaxSlots:   1 << 16,
		}
	})
}

// fuzzTrace decodes data into a nondecreasing arrival trace: each batch is
// a (gap, count) byte pair. A gap byte below 128 advances the slot by its
// value (0 repeats the previous slot); from 128 it advances by (b-128)*64,
// so traces also reach past MaxSlots. Counts run 1-16; at most 48 batches.
func fuzzTrace(data []byte) []arrivals.TraceBatch {
	var out []arrivals.TraceBatch
	slot := int64(0)
	for i := 0; i+1 < len(data) && len(out) < 48; i += 2 {
		if g := int64(data[i]); g < 128 {
			slot += g
		} else {
			slot += (g - 128) * 64
		}
		out = append(out, arrivals.TraceBatch{Slot: slot, Count: int64(data[i+1]%16) + 1})
	}
	return out
}

// FuzzEngineMatchesOracle: for any arrival trace — repeated slots
// included — with optional pure churn and periodic jamming, the engine's
// results and Recorder event streams equal the slot-by-slot reference's.
// mode bit 0 enables churn and bit 1 jamming; knob shapes both.
func FuzzEngineMatchesOracle(f *testing.F) {
	// Two batches at slot 0 and three at slot 90: resolving slot 0 before
	// the second batch arrives splits one slot's contention in two.
	f.Add(uint64(4), byte(0), byte(0), []byte{0, 15, 0, 15, 0, 8, 90, 7, 0, 2, 0, 0})
	f.Add(uint64(9), byte(3), byte(37), []byte{0, 5, 3, 0, 0, 9, 200, 15, 0, 15, 1, 1})
	f.Add(uint64(1), byte(2), byte(200), []byte{130, 3, 0, 3, 255, 0})
	f.Fuzz(func(t *testing.T, seed uint64, mode, knob byte, data []byte) {
		trace := fuzzTrace(data)
		var lifetime func(id, arrival int64) int64
		if mode&1 != 0 {
			span := int64(knob%64) + 1
			lifetime = func(id, arrival int64) int64 {
				if id%3 == 0 {
					return -1
				}
				return arrival + 1 + (id*7+int64(knob))%span
			}
		}
		var jam sim.Jammer
		if mode&2 != 0 {
			period := int64(knob%15) + 2
			jam = periodicJam{period: period, burst: int64(knob/15)%(period-1) + 1, phase: int64(knob % 7)}
		}
		diff(t, "fuzz", func() sim.Params {
			src, err := arrivals.NewTrace(trace)
			if err != nil {
				t.Fatal(err)
			}
			return sim.Params{
				Seed:       seed,
				Arrivals:   src,
				NewStation: core.MustFactory(core.Default()),
				Jammer:     jam,
				Lifetime:   lifetime,
				MaxSlots:   1 << 14,
			}
		})
	})
}
