package sim

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"lowsensing/prng"
)

// wheelVsHeap drives a timingWheel and the reference 4-ary heap through an
// identical operation sequence decoded from data, failing if their
// observable behavior ever diverges: pop order (slots AND ids AND payload),
// limited pops, and sizes. The byte protocol is what the fuzzer mutates:
//
//	op%8 in 0..3: push — three bytes of magnitude and a shift byte (mod
//	  40) build a slot delta in [0, 2^62], dist's clamp, that crosses
//	  every wheel level boundary up to the top level; the delta is cut
//	  where the slot would pass math.MaxInt64, so a floor past 2^62 also
//	  reaches the last slot. Two more bytes scramble the id's high bits so
//	  same-slot events arrive in non-id order and exercise the lazy
//	  bucket sort.
//	op%8 in 4..5: pop — both queues pop, results must be identical.
//	op%8 in 6..7: limited pop — popAtMost with a limit at or past the
//	  floor must miss exactly when the heap's minimum is past the limit,
//	  and on a hit return the heap's pop; a miss advances the floor to the
//	  limit, exactly like an engine arrival landing before the event
//	  minimum.
//
// The floor models engine time: pushes never go below it, pops advance
// it. That is the wheel's documented cursor contract.
func wheelVsHeap(t *testing.T, data []byte) {
	t.Helper()
	w := timingWheel{wheelHeads: new(wheelHeads)}
	var h eventQueue
	var floor, idCounter int64
	i := 0
	next := func() byte {
		if i < len(data) {
			b := data[i]
			i++
			return b
		}
		return 0
	}
	for i < len(data) {
		switch op := next() % 8; {
		case op < 4: // push
			u := int64(next()) | int64(next())<<8 | int64(next())<<16
			shift := uint(next()) % 40
			delta := min(u<<shift, 1<<62, math.MaxInt64-floor)
			// Ids must be unique for a deterministic pop order, but their
			// order must not follow push order: scramble the high bits.
			id := int64(next())<<40 | int64(next())<<32 | idCounter
			idCounter++
			ev := event{slot: floor + delta, id: id, idx: int32(idCounter)}
			w.Push(ev)
			h.Push(ev)
		case op < 6: // pop
			if h.Len() == 0 {
				continue
			}
			want := h.Pop()
			got, ok := w.popAtMost(math.MaxInt64)
			if !ok || got != want {
				t.Fatalf("pop: wheel (%+v, %v), heap %+v", got, ok, want)
			}
			floor = want.slot
		default: // limited pop
			limit := floor + int64(next())
			got, ok := w.popAtMost(limit)
			if wantOK := h.Len() > 0 && h.Min().slot <= limit; ok != wantOK {
				t.Fatalf("popAtMost(%d) hit = %v, want %v", limit, ok, wantOK)
			}
			if !ok {
				floor = limit
				break
			}
			if want := h.Pop(); got != want {
				t.Fatalf("popAtMost(%d): wheel %+v, heap %+v", limit, got, want)
			}
			floor = got.slot
		}
		if w.Len() != h.Len() {
			t.Fatalf("size skew: wheel %d, heap %d", w.Len(), h.Len())
		}
	}
	for h.Len() > 0 {
		want := h.Pop()
		got, ok := w.popAtMost(math.MaxInt64)
		if !ok || got != want {
			t.Fatalf("drain: wheel (%+v, %v), heap %+v", got, ok, want)
		}
	}
	if _, ok := w.popAtMost(math.MaxInt64); ok {
		t.Fatal("wheel still has events after heap drained")
	}
}

// TestWheelMatchesHeapRandom is the property test: long random operation
// sequences (from the module's own deterministic prng) must keep the wheel
// and the heap behaviorally identical. The shift byte spreads deltas over
// every level: a fifth of the pushes land below 2^31, the rest reach up to
// the 2^62 clamp.
func TestWheelMatchesHeapRandom(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := prng.New(seed)
		data := make([]byte, 4096)
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		wheelVsHeap(t, data)
	}
}

// TestWheelLevelBoundaries pins the cascade logic at every level boundary:
// events exactly at, one below, and one above each level's horizon (the
// 1024-slot exact level, then each 64-wide upper level), plus dist's 2^62
// clamp and the last int64 slot, all pushed from slot 0, must pop in
// (slot, id) order.
func TestWheelLevelBoundaries(t *testing.T) {
	deltas := []int64{
		0, 1, 62, 63, 64, 65, 127, 128,
		1023, 1024, 1025, // level 0 / level 1
		1<<16 - 1, 1 << 16, 1<<16 + 1, // level 1 / level 2
		1<<22 - 1, 1 << 22, 1<<22 + 1, // level 2 / level 3
		1<<28 - 1, 1 << 28, 1<<28 + 1, // level 3 / level 4
		1<<34 - 1, 1 << 34, 1<<34 + 1, // level 4 / level 5
		1<<40 - 1, 1 << 40, 1<<40 + 1, // level 5 / level 6
		1<<46 - 1, 1 << 46, 1<<46 + 1, // level 6 / level 7
		1<<52 - 1, 1 << 52, 1<<52 + 1, // level 7 / level 8
		1<<58 - 1, 1 << 58, 1<<58 + 1, // level 8 / level 9
		1 << 30, 1 << 62, math.MaxInt64, // dist's clamp, the last slot
	}
	w := timingWheel{wheelHeads: new(wheelHeads)}
	var h eventQueue
	for k, d := range deltas {
		// Two events per slot with reversed-id pushes so every bucket also
		// checks the same-slot tie order.
		a := event{slot: d, id: int64(2*k + 1), idx: int32(2 * k)}
		b := event{slot: d, id: int64(2 * k), idx: int32(2*k + 1)}
		w.Push(a)
		h.Push(a)
		w.Push(b)
		h.Push(b)
	}
	for h.Len() > 0 {
		want := h.Pop()
		got, ok := w.popAtMost(math.MaxInt64)
		if !ok || got != want {
			t.Fatalf("pop: wheel (%+v, %v), heap %+v", got, ok, want)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("wheel has %d events left", w.Len())
	}
}

// TestWheelLimitDoesNotOvershoot is the arrival-before-event-minimum case
// the limit parameter exists for: a miss at the limit must leave the
// cursor at or before it, so the engine can still schedule an arriving
// packet's first access below the previously peeked minimum.
func TestWheelLimitDoesNotOvershoot(t *testing.T) {
	w := timingWheel{wheelHeads: new(wheelHeads)}
	w.Push(event{slot: 100000, id: 1, idx: 0})
	if ev, ok := w.popAtMost(500); ok {
		t.Fatalf("popAtMost(500) = (%+v, true), want miss", ev)
	}
	// An "arrival" at slot 600 schedules below the pending minimum.
	w.Push(event{slot: 600, id: 2, idx: 1})
	ev, ok := w.popAtMost(600)
	if !ok || ev != (event{slot: 600, id: 2, idx: 1}) {
		t.Fatalf("popAtMost(600) = (%+v, %v), want id 2 at slot 600", ev, ok)
	}
	if ev, ok := w.popAtMost(600); ok {
		t.Fatalf("popAtMost(600) again = (%+v, true), want miss", ev)
	}
	ev, ok = w.popAtMost(math.MaxInt64)
	if !ok || ev.id != 1 {
		t.Fatalf("second pop = (%+v, %v), want id 1", ev, ok)
	}
}

// TestWheelPushBehindCursorPanics: the cursor contract is load-bearing
// (level-0 buckets are exact only because pending slots never precede the
// cursor), so a violation must fail fast, not corrupt the schedule.
func TestWheelPushBehindCursorPanics(t *testing.T) {
	w := timingWheel{wheelHeads: new(wheelHeads)}
	w.Push(event{slot: 50, id: 1})
	if _, ok := w.popAtMost(math.MaxInt64); !ok {
		t.Fatal("pop failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Push behind cursor did not panic")
		}
	}()
	w.Push(event{slot: 10, id: 2})
}

// FuzzWheelCascade fuzzes the wheel-vs-heap equivalence through the same
// byte protocol as the property test. The seed corpus aims mutations at
// the cascade logic: pushes that straddle each level boundary up to the
// top level, dist's 2^62 clamp, the last int64 slot, same-slot ties, and
// limited pops that advance the cursor between pushes. Further seeds aim
// at the same-slot drain: two-event buckets in both id orders, cascades
// that fill one level-0 slot, same-slot pushes folded mid-drain, and wide
// ids (past 31 bits, which the packed drain keys cannot hold).
func FuzzWheelCascade(f *testing.F) {
	// op byte, then per-op operands (see wheelVsHeap).
	push := func(lo, mid, hi, shift, idHi1, idHi2 byte) []byte {
		return []byte{0, lo, mid, hi, shift, idHi1, idHi2}
	}
	pop := []byte{4}
	limited := func(d byte) []byte { return []byte{6, d} }
	cat := func(chunks ...[]byte) []byte {
		var out []byte
		for _, c := range chunks {
			out = append(out, c...)
		}
		return out
	}
	// Same slot, scrambled ids: the lazy bucket sort.
	f.Add(cat(push(5, 0, 0, 0, 9, 0), push(5, 0, 0, 0, 1, 0), push(5, 0, 0, 0, 4, 0), pop, pop, pop))
	// One event just inside each level, then drain.
	f.Add(cat(push(63, 0, 0, 0, 0, 0), push(64, 0, 0, 0, 0, 0), push(0, 16, 0, 0, 0, 0),
		push(0, 0, 4, 0, 0, 0), pop, pop, pop, pop))
	// Level-2/3 boundaries via the shift operand (0xffff<<4 > 2^18).
	f.Add(cat(push(255, 255, 0, 4, 0, 0), push(255, 255, 3, 0, 2, 0), pop, pop))
	// Level 3/4 boundary: 3-byte magnitude shifted past 2^28, then a
	// near-future push, then pops that must interleave correctly.
	f.Add(cat(push(255, 255, 255, 7, 0, 0), push(1, 0, 0, 0, 0, 0), pop, pop))
	// Limited pops that miss (advancing the cursor) between pushes.
	f.Add(cat(push(0, 4, 0, 0, 0, 0), limited(20), push(30, 0, 0, 0, 0, 0), pop, pop, limited(255)))
	// Dense same-slot ties across a cascade: a level-1 bucket whose events
	// spread over multiple exact slots plus duplicates.
	f.Add(cat(push(70, 0, 0, 0, 3, 0), push(70, 0, 0, 0, 1, 0), push(71, 0, 0, 0, 2, 0),
		push(100, 0, 0, 0, 0, 0), pop, pop, pop, pop))
	// Each boundary from 2^34 to 2^58: one below (2^24-1 << b-24), at
	// (2^23 << b-23) and above (2^23+1 << b-23), then a near-future push,
	// drained in order.
	for b := byte(34); b <= 58; b += 6 {
		f.Add(cat(push(255, 255, 255, b-24, 0, 0), push(0, 0, 128, b-23, 1, 0),
			push(1, 0, 128, b-23, 0, 0), push(9, 0, 0, 0, 0, 0), pop, pop, pop, pop))
	}
	// dist's 2^62 clamp twice: the second push, from a floor of 2^62, is
	// cut to the last int64 slot.
	f.Add(cat(push(255, 255, 255, 39, 0, 0), pop, push(255, 255, 255, 39, 0, 0),
		push(0, 0, 1, 0, 0, 0), pop, pop))
	// Exactly two events in one slot, the smaller id in the bucket header:
	// a two-key drain.
	f.Add(cat(push(5, 0, 0, 0, 0, 0), push(5, 0, 0, 0, 0, 0), pop, pop))
	// Exactly two events in one slot, the smaller id chained behind the
	// header: the level-1 bucket at 2000-2001 relinks its chain head first,
	// so slot 2001 gets id 2 in its header and id 1 behind it.
	f.Add(cat(push(0xd0, 7, 0, 0, 0, 0), push(0xd1, 7, 0, 0, 0, 0), push(0xd1, 7, 0, 0, 0, 0),
		pop, pop, pop))
	// A level-1 bucket cascading four events into one level-0 slot.
	f.Add(cat(push(0xd1, 7, 0, 0, 0, 0), push(0xd1, 7, 0, 0, 0, 0), push(0xd1, 7, 0, 0, 0, 0),
		push(0xd1, 7, 0, 0, 0, 0), limited(9), pop, pop, pop, pop))
	// Same-slot pushes after a pop (delta 0), folded mid-drain.
	f.Add(cat(push(5, 0, 0, 0, 0, 0), push(5, 0, 0, 0, 0, 0), push(5, 0, 0, 0, 0, 0), pop,
		push(0, 0, 0, 0, 0, 0), limited(0), push(0, 0, 0, 0, 0, 0), pop, pop, pop))
	// Wide ids: one alone in its bucket, then two in reversed id order.
	f.Add(cat(push(9, 0, 0, 0, 7, 3), push(12, 0, 0, 0, 9, 0), push(12, 0, 0, 0, 0, 1),
		pop, pop, pop))
	// A wide id arriving mid-drain after packed keys (the drain converts
	// to structs), then a packed-range id that must sort before it.
	f.Add(cat(push(5, 0, 0, 0, 0, 0), push(5, 0, 0, 0, 0, 0), push(5, 0, 0, 0, 0, 0), pop,
		push(0, 0, 0, 0, 1, 0), pop, push(0, 0, 0, 0, 0, 0), pop, pop, pop))
	f.Fuzz(func(t *testing.T, data []byte) {
		wheelVsHeap(t, data)
	})
}

// TestSortKeyTail checks the drain's packed-key sort against slices.Sort
// on tails of 0–300 keys, across the slices.Sort/radix cutoff (16 and 17
// straddle it), with and without an already-served drain prefix, which
// must stay put. Ids are unique, as the engine's are, and use one to four
// significant bytes; one case holds id byte 1 constant, a byte radix
// skips.
func TestSortKeyTail(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	var w timingWheel
	for _, tc := range []struct {
		idBits   int  // ids are below 1<<idBits, capped at the packed 31
		constMid bool // id byte 1 is 0x5a in every key
	}{{8, false}, {16, false}, {24, false}, {31, false}, {24, true}} {
		for _, pos := range []int{0, 3} {
			for n := 0; n <= 300 && n <= 1<<tc.idBits; n++ {
				w.drainKeys = w.drainKeys[:0]
				for range pos {
					w.drainKeys = append(w.drainKeys, ^uint64(0))
				}
				seen := map[uint64]bool{}
				for len(w.drainKeys) < pos+n {
					id := rng.Uint64N(1 << tc.idBits)
					if tc.constMid {
						id = id&^0xff00 | 0x5a00
					}
					if !seen[id] {
						seen[id] = true
						w.drainKeys = append(w.drainKeys, id<<32|uint64(rng.Uint32()>>1))
					}
				}
				want := slices.Clone(w.drainKeys)
				slices.Sort(want[pos:])
				w.drainPos = pos
				w.sortKeyTail()
				if !slices.Equal(w.drainKeys, want) {
					t.Fatalf("idBits=%d constMid=%v pos=%d n=%d: got %x, want %x",
						tc.idBits, tc.constMid, pos, n, w.drainKeys, want)
				}
			}
		}
	}
}
