package sim

// event is one pending channel access: the station occupying slot-table
// entry idx (carrying packet id) will access the channel at slot. The
// packet id rides along because slot-table entries are recycled, so idx
// alone does not encode arrival order; ordering by (slot, id) keeps the
// engine's within-slot processing in arrival order.
type event struct {
	slot int64
	id   int64
	idx  int32
}

// eventLess is the queue's strict total order: by slot, then by packet id.
// Ids are unique, so there are never ties and the pop sequence is a pure
// function of the queue's contents, independent of heap shape.
func eventLess(a, b event) bool {
	return a.slot < b.slot || (a.slot == b.slot && a.id < b.id)
}

// eventQueue is a 4-ary min-heap specialized to event. It is the
// hierarchical timing wheel's (wheel.go) far-future overflow level —
// events scheduled beyond the wheel's 2^28-slot horizon wait here, already
// in pop order, until the cursor reaches their region — and the baseline
// the wheel's benchmarks are measured against. Compared with a container/heap implementation it
// never boxes events through `any` on Push/Pop (zero allocations in steady
// state, the backing array is reused) and the 4-ary layout halves the tree
// depth, trading a few extra comparisons per level for far fewer cache-
// missing swaps. See BenchmarkEventQueue and BenchmarkEngineHotPath.
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
