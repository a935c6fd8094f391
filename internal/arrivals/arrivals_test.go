package arrivals

import (
	"math"
	"testing"

	"lowsensing/channel"
)

// drain pulls every batch from a source, asserting monotone slots, and
// returns the batches. It aborts after limit batches (guards infinite
// sources).
func drain(t *testing.T, src channel.ArrivalSource, limit int) []TraceBatch {
	t.Helper()
	var out []TraceBatch
	prev := int64(-1)
	for len(out) < limit {
		slot, count, ok := src.Next()
		if !ok {
			return out
		}
		if slot < prev {
			t.Fatalf("slots went backwards: %d after %d", slot, prev)
		}
		if count <= 0 {
			t.Fatalf("non-positive count %d at slot %d", count, slot)
		}
		prev = slot
		out = append(out, TraceBatch{Slot: slot, Count: count})
	}
	return out
}

func total(batches []TraceBatch) int64 {
	var n int64
	for _, b := range batches {
		n += b.Count
	}
	return n
}

func TestBatch(t *testing.T) {
	b := NewBatch(100)
	got := drain(t, b, 10)
	if len(got) != 1 || got[0].Slot != 0 || got[0].Count != 100 {
		t.Fatalf("batch = %+v", got)
	}
	if _, _, ok := b.Next(); ok {
		t.Fatal("batch emitted twice")
	}
}

func TestBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBatch(0) did not panic")
		}
	}()
	NewBatch(0)
}

func TestTrace(t *testing.T) {
	src, err := NewTrace([]TraceBatch{{0, 2}, {5, 1}, {5, 3}, {9, 1}})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, src, 10)
	if len(got) != 4 || total(got) != 7 {
		t.Fatalf("trace = %+v", got)
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NewTrace([]TraceBatch{{5, 1}, {4, 1}}); err == nil {
		t.Fatal("decreasing trace accepted")
	}
	if _, err := NewTrace([]TraceBatch{{5, 0}}); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := NewTrace(nil); err != nil {
		t.Fatalf("empty trace rejected: %v", err)
	}
}

func TestBernoulliValidation(t *testing.T) {
	for _, rate := range []float64{0, -0.1, 1.5} {
		if _, err := NewBernoulli(rate, 10, 1); err == nil {
			t.Fatalf("rate %v accepted", rate)
		}
	}
}

func TestBernoulliTotalAndRate(t *testing.T) {
	const totalPkts = 20000
	const rate = 0.05
	src, err := NewBernoulli(rate, totalPkts, 42)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, src, totalPkts+10)
	if total(got) != totalPkts {
		t.Fatalf("total = %d", total(got))
	}
	// All counts are 1, and mean inter-arrival gap ~ 1/rate.
	lastSlot := got[len(got)-1].Slot
	meanGap := float64(lastSlot) / float64(len(got)-1)
	if math.Abs(meanGap-1/rate) > 0.1/rate {
		t.Fatalf("mean gap = %v, want ~%v", meanGap, 1/rate)
	}
}

func TestBernoulliUnboundedKeepsProducing(t *testing.T) {
	src, err := NewBernoulli(0.5, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, src, 1000)
	if len(got) != 1000 {
		t.Fatalf("unbounded source stopped at %d", len(got))
	}
}

func TestBernoulliDeterminism(t *testing.T) {
	a, _ := NewBernoulli(0.1, 100, 5)
	b, _ := NewBernoulli(0.1, 100, 5)
	ga := drain(t, a, 200)
	gb := drain(t, b, 200)
	if len(ga) != len(gb) {
		t.Fatal("lengths differ")
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("batch %d differs: %+v vs %+v", i, ga[i], gb[i])
		}
	}
}

func TestPoissonValidation(t *testing.T) {
	if _, err := NewPoisson(0, 10, 1); err == nil {
		t.Fatal("lambda 0 accepted")
	}
	if _, err := NewPoisson(-1, 10, 1); err == nil {
		t.Fatal("negative lambda accepted")
	}
}

func TestPoissonRate(t *testing.T) {
	const totalPkts = 50000
	const lambda = 0.2
	src, err := NewPoisson(lambda, totalPkts, 9)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, src, totalPkts+10)
	if total(got) != totalPkts {
		t.Fatalf("total = %d", total(got))
	}
	lastSlot := got[len(got)-1].Slot
	rate := float64(totalPkts) / float64(lastSlot+1)
	if math.Abs(rate-lambda) > 0.02 {
		t.Fatalf("empirical rate = %v, want ~%v", rate, lambda)
	}
}

func TestPoissonTruncatesFinalBatch(t *testing.T) {
	// With huge lambda the first batch would exceed the total; it must be
	// truncated exactly.
	src, err := NewPoisson(50, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, src, 100)
	if total(got) != 10 {
		t.Fatalf("total = %d, want 10", total(got))
	}
}

func TestAQTValidation(t *testing.T) {
	if _, err := NewAQT(0, 0.1, 1, AQTBurst, 1); err == nil {
		t.Fatal("S=0 accepted")
	}
	if _, err := NewAQT(100, 0, 1, AQTBurst, 1); err == nil {
		t.Fatal("lambda=0 accepted")
	}
	if _, err := NewAQT(100, 1, 1, AQTBurst, 1); err == nil {
		t.Fatal("lambda=1 accepted")
	}
	if _, err := NewAQT(100, 0.001, 1, AQTBurst, 1); err == nil {
		t.Fatal("zero quota accepted")
	}
	if _, err := NewAQT(100, 0.1, 1, AQTStrategy(99), 1); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestAQTBurstPlacement(t *testing.T) {
	src, err := NewAQT(100, 0.1, 5, AQTBurst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if src.Quota() != 10 {
		t.Fatalf("quota = %d", src.Quota())
	}
	got := drain(t, src, 10)
	if len(got) != 5 {
		t.Fatalf("windows = %d", len(got))
	}
	for i, b := range got {
		if b.Slot != int64(i)*100 || b.Count != 10 {
			t.Fatalf("window %d = %+v", i, b)
		}
	}
}

func TestAQTSpreadStaysInWindow(t *testing.T) {
	src, err := NewAQT(64, 0.25, 50, AQTSpread, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, src, 100)
	if len(got) != 50 {
		t.Fatalf("windows = %d", len(got))
	}
	for i, b := range got {
		lo, hi := int64(i)*64, int64(i+1)*64
		if b.Slot < lo || b.Slot >= hi {
			t.Fatalf("window %d batch at %d outside [%d,%d)", i, b.Slot, lo, hi)
		}
		if b.Count != 16 {
			t.Fatalf("window %d count = %d", i, b.Count)
		}
	}
}

func TestAQTRespectsWindowBudgetProperty(t *testing.T) {
	// Model invariant: every aligned window of S slots receives at most
	// floor(lambda*S) packets.
	var s int64 = 128
	lambda := 0.3
	src, err := NewAQT(s, lambda, 200, AQTSpread, 5)
	if err != nil {
		t.Fatal(err)
	}
	perWindow := map[int64]int64{}
	for _, b := range drain(t, src, 1000) {
		perWindow[b.Slot/s] += b.Count
	}
	quota := int64(lambda * float64(s))
	for w, n := range perWindow {
		if n > quota {
			t.Fatalf("window %d got %d > quota %d", w, n, quota)
		}
	}
}

func TestMergeOrderAndTies(t *testing.T) {
	a, err := NewTrace([]TraceBatch{{Slot: 0, Count: 1}, {Slot: 5, Count: 2}, {Slot: 9, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTrace([]TraceBatch{{Slot: 3, Count: 4}, {Slot: 5, Count: 8}})
	if err != nil {
		t.Fatal(err)
	}
	// Nil sources are skipped but still occupy an OnEmit index, so a class
	// table indexed by source position stays aligned.
	m := NewMerge(a, nil, b)
	var emits []int
	m.OnEmit = func(source int, slot, count int64) { emits = append(emits, source) }
	got := drain(t, m, 16)
	want := []TraceBatch{{0, 1}, {3, 4}, {5, 2}, {5, 8}, {9, 1}}
	if len(got) != len(want) {
		t.Fatalf("merged %d batches, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch %d = %v, want %v (same-slot ties break by source index)", i, got[i], want[i])
		}
	}
	wantEmits := []int{0, 2, 0, 2, 0}
	for i := range wantEmits {
		if emits[i] != wantEmits[i] {
			t.Fatalf("OnEmit sources = %v, want %v", emits, wantEmits)
		}
	}
}

func TestMergeAllNilOrEmpty(t *testing.T) {
	if _, _, ok := NewMerge(nil, nil).Next(); ok {
		t.Fatal("merge of nils produced a batch")
	}
	empty, err := NewTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := NewMerge(empty).Next(); ok {
		t.Fatal("merge of an empty source produced a batch")
	}
}

// backwards is a deliberately broken source: its second batch precedes its
// first.
type backwards struct{ n int }

func (s *backwards) Next() (int64, int64, bool) {
	s.n++
	switch s.n {
	case 1:
		return 10, 1, true
	case 2:
		return 5, 1, true
	}
	return 0, 0, false
}

func TestMergePanicsOnBackwardsSource(t *testing.T) {
	m := NewMerge(&backwards{})
	defer func() {
		if recover() == nil {
			t.Fatal("backwards inner source not detected")
		}
	}()
	for i := 0; i < 4; i++ {
		m.Next()
	}
}
