package sim

import (
	"testing"

	"lowsensing/prng"
)

// eventLess is the engine's strict total order on events: by slot, then by
// packet id. Ids are unique, so there are never ties and the pop sequence
// is a pure function of the queue's contents, independent of heap shape.
func eventLess(a, b event) bool {
	return a.slot < b.slot || (a.slot == b.slot && a.id < b.id)
}

// eventQueue is a 4-ary min-heap of events in eventLess order: the
// reference the timing wheel is checked against (wheelVsHeap,
// TestWheelLevelBoundaries, the stream tests) and the baseline of
// BenchmarkEngineHotPath/queue/heap. The engine itself schedules only on
// the wheel.
type eventQueue struct {
	ev []event
}

// Len returns the number of pending events.
func (q *eventQueue) Len() int { return len(q.ev) }

// Min returns the earliest event without removing it. Caller guarantees
// the queue is nonempty.
func (q *eventQueue) Min() event { return q.ev[0] }

// Push inserts an event.
func (q *eventQueue) Push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(q.ev[i], q.ev[p]) {
			break
		}
		q.ev[i], q.ev[p] = q.ev[p], q.ev[i]
		i = p
	}
}

// Pop removes and returns the earliest event. Caller guarantees the queue
// is nonempty.
func (q *eventQueue) Pop() event {
	ev := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev = q.ev[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return ev
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.ev)
	for {
		c := i<<2 + 1
		if c >= n {
			return
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(q.ev[j], q.ev[m]) {
				m = j
			}
		}
		if !eventLess(q.ev[m], q.ev[i]) {
			return
		}
		q.ev[i], q.ev[m] = q.ev[m], q.ev[i]
		i = m
	}
}

// TestEventQueueOrdering: the reference heap pops in strict (slot, id)
// order under interleaved pushes.
func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	rng := prng.New(99)
	type key struct{ slot, id int64 }
	pushed := 0
	popped := 0
	var last key
	lastValid := false
	for round := 0; round < 2000; round++ {
		if q.Len() == 0 || rng.Bernoulli(0.55) {
			q.Push(event{slot: int64(rng.Intn(500)), id: int64(pushed), idx: int32(pushed % 64)})
			pushed++
			lastValid = false // a push can introduce earlier keys than the last pop
			continue
		}
		ev := q.Pop()
		k := key{ev.slot, ev.id}
		if lastValid && (k.slot < last.slot || (k.slot == last.slot && k.id < last.id)) {
			t.Fatalf("pop %d: (%d,%d) after (%d,%d)", popped, k.slot, k.id, last.slot, last.id)
		}
		last, lastValid = k, true
		popped++
	}
	// Drain fully sorted.
	lastValid = false
	for q.Len() > 0 {
		ev := q.Pop()
		k := key{ev.slot, ev.id}
		if lastValid && (k.slot < last.slot || (k.slot == last.slot && k.id < last.id)) {
			t.Fatalf("drain: (%d,%d) after (%d,%d)", k.slot, k.id, last.slot, last.id)
		}
		last, lastValid = k, true
		popped++
	}
	if popped != pushed {
		t.Fatalf("popped %d != pushed %d", popped, pushed)
	}
}
