package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// timingWheel is the engine's event scheduler: a hierarchical timing wheel
// that exploits the engine's monotone time advance for O(1) amortized
// schedule/extract in exact (slot, id) pop order.
//
// # Structure
//
// The wheel keeps a time cursor cur — a lower bound on every pending
// event's slot, advanced monotonically as events are located — a wide
// exact level 0, and nine upper levels of wheelSize buckets each, sized
// in powers of two; an event lands at the lowest level whose span still
// distinguishes it from the cursor (its slot and cur first differ in that
// level's digit of the slot number):
//
//	level 0:  1024 buckets of 1 slot each — the cursor's 1024-slot block
//	level 1:  64 buckets of 1024 slots    — the cursor's 64K-slot block
//	level 2:  64 buckets of 64K slots     — the cursor's 4M-slot block
//	level 3:  64 buckets of 4M slots      — the cursor's 256M-slot block
//	level k:  64 buckets of 2^(6k+4) slots — the cursor's 2^(6k+10)-slot block
//
// Level 0 is deliberately much wider than the upper levels: backoff
// windows in the hundreds of slots are the engine's steady state, and a
// 64-slot exact level would force most pushes through one cascade before
// popping. At 1024 slots the common schedule lands directly at level 0 and
// never cascades at all. Its occupancy is a two-level bitmap — sixteen
// 64-bit words plus one summary word whose bit i says word i is nonempty —
// so "first pending slot" is still just two TrailingZeros64 scans.
//
// The top level, 9, spans 2^64 slots, so every non-negative int64 slot has
// a level and the wheel has no horizon: a gap up to dist's 2^62 clamp, or
// a custom station's math.MaxInt64, lands in the wheel like any other.
// This is Varghese & Lauck's answer to the horizon problem (hierarchical
// timing wheels, SOSP 1987): add levels until they span the key range.
// An event cascades down at most once per level over its life — O(1)
// amortized — and locating the minimum is a few bitmap scans.
//
// # Memory
//
// Each bucket stores its first event inline in the bucket header; second
// and later events chain through one shared node array indexed by the
// event's idx — the engine's recycled slot-table index, of which each live
// packet owns exactly one — so scheduling moves no bytes beyond the event
// itself and allocates nothing: a push writes a header or links a node, a
// cascade relinks them. The steady-state sparse case (one event per
// bucket, the common shape under large backoff windows) runs entirely in
// the header arrays — ~38KB, of which only the touched cache lines are
// ever resident — and never touches the node array at all. The headers are
// a fixed-size block the engine recycles across runs (engineBlock), so a
// short run does not pay to allocate and zero them. Total footprint is
// O(peak backlog) nodes plus one drain
// buffer that grows to the largest number of same-slot accessors,
// mirroring the engine's own per-slot scratch. Pathological fan-in (a
// fresh batch of 100k packets all scheduling within a 16-slot window)
// costs exactly its node count, where per-bucket slices would balloon to
// the sum of every bucket's high-water mark.
//
// # Ordering
//
// The engine requires pops in strict (slot, id) order, so the goldens stay
// byte-identical. Level >= 1 buckets are unordered (cascading
// re-distributes them), but a level-0 bucket holds events of exactly one
// slot: popAtMost serves a single-event bucket directly from its header
// (the steady-state sparse case pays for no buffering at all), and moves a
// multi-event bucket into the drain buffer, sorts it by id once, and
// serves pops from the front, folding in any same-slot events pushed
// mid-drain. The id sort never goes through a comparator closure: small
// buckets use a direct insertion sort and large ones an LSD radix sort
// over the id bytes (ids are non-negative by contract — the engine's are
// arrival indices), which is what keeps deep same-slot fan-in (a batch
// backlog resolving 64k stations) O(1)-ish per event instead of paying
// O(log k) indirect comparisons.
//
// # The cursor contract
//
// Push requires ev.slot >= cur, and at most one pending event per idx
// (the engine's one-event-per-live-packet invariant). The engine's time
// is monotone, but an arrival batch at slot s, injected once every slot
// before s has resolved, may push accesses at s itself, earlier than the
// event minimum — so the cursor must never overshoot s while peeking.
// nextAtMost and popAtMost therefore take an explicit limit: the cursor
// only advances to min(event minimum, limit), and the search reports
// "nothing at or before limit" without disturbing later events. The
// scheduler loop resolves slots strictly below its step limit, so it
// peeks with limit-1 (capped at MaxSlots): the cursor stays below the
// next injection slot, the smallest slot the engine might still push.
// Alongside cur the wheel maintains floor — a proven lower bound on every
// pending slot, tightened by every miss and every emptied bucket,
// loosened by any earlier push — which turns the engine's per-slot
// terminating probe ("anything else at this slot?") into a single compare.
type timingWheel struct {
	cur   int64 // lower bound on every pending slot; monotone
	floor int64 // proven lower bound on every pending slot; >= cur
	n     int   // pending events, including the drain remainder
	// Level-0 occupancy: occ0[i] covers buckets [i*64, i*64+64), and
	// occ0sum bit i is set iff occ0[i] is nonzero — the two-level bitmap
	// that keeps the 1024-bucket scan at two TrailingZeros64 ops.
	occ0    [wheelL0Size / 64]uint64
	occ0sum uint64
	occUp   [wheelUpper]uint64
	// The bucket headers live in a separate fixed-size block, which the
	// engine takes from its pool (see engineBlock).
	*wheelHeads
	nodes []wheelNode
	// nodeHint is the engine's slot-table length: every idx pushed is
	// below it, so chain grows nodes straight to it.
	nodeHint int
	// The drain is the sorted same-slot buffer popAtMost serves from;
	// positions [drainPos:drainLen] are pending at drainSlot. While every
	// id fits 31 bits — always, for the engine's arrival-index ids — it
	// holds packed (id<<32 | idx) keys in drainKeys, which is what lets
	// the bucket sort run branchless (networks, radix); wider ids fall
	// back to []event structs in drain.
	drainKeys   []uint64
	drain       []event
	drainPos    int
	drainLen    int
	drainSlot   int64
	drainPacked bool
	// keyBuf and sortBuf are the radix sorts' scratch space, reused
	// run-long.
	keyBuf  []uint64
	sortBuf []event

	// Self-metrics (surfaced through EngineStats): lifetime pushes and
	// cursor cascades (upper-level bucket relocations).
	pushes   int64
	cascades int64
}

const (
	wheelBits   = 6
	wheelSize   = 1 << wheelBits // buckets per upper level
	wheelMask   = wheelSize - 1
	wheelL0Bits = 10
	wheelL0Size = 1 << wheelL0Bits // exact-slot buckets at level 0
	wheelL0Mask = wheelL0Size - 1
	// wheelUpper is the number of levels above the exact level: 10 + 9·6
	// = 64 bits, so the top level spans every non-negative int64 slot.
	wheelUpper = 9
)

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

// bucket is one bucket's header: its first event held inline — the
// steady-state sparse case pops straight from here, one cache line, no
// node access — and the chain head (into nodes) of any further events.
// next is -1 when the inline event is alone.
type bucket struct {
	slot int64
	id   int64
	idx  int32
	next int32
}

// wheelHeads is the wheel's ~38KB of bucket headers: each bucket's first
// event inline plus the chain head of any further events in nodes. A
// header is valid only where the wheel's occupancy bit is set, so a block
// recycled from another engine needs no clearing — the new wheel's bitmaps
// start empty, and every header is written before it is read.
type wheelHeads struct {
	head0  [wheelL0Size]bucket
	headUp [wheelUpper][wheelSize]bucket
}

// wheelNode is one chained event's residence in the shared node array,
// indexed by the event's idx. next links the bucket's chain and is -1 at
// the tail.
type wheelNode struct {
	slot int64
	id   int64
	next int32
}

// Len returns the number of pending events.
func (w *timingWheel) Len() int { return w.n }

// Push inserts an event. ev.slot must be >= the cursor, which the engine
// guarantees by construction: it only schedules at or after the slot it is
// working on, and the cursor never advances past that slot. Ids must be
// non-negative (the engine's are arrival indices), which is what lets the
// bucket sort run radix passes over the id bytes.
//
//lsbvet:hotpath
func (w *timingWheel) Push(ev event) {
	if ev.slot < w.cur {
		w.pushPanic(ev.slot)
	}
	if ev.slot < w.floor {
		w.floor = ev.slot
	}
	w.n++
	w.pushes++
	// The body below is link, spelled out: the push→link call sat on the
	// hottest edge in the engine profile, and the compiler's inlining
	// budget will not fuse them for us. The level-0 branch comes first and
	// straight-line — it is where the steady-state schedule lands.
	slot, id, idx := ev.slot, ev.id, ev.idx
	d := uint64(slot ^ w.cur)
	if d < wheelL0Size {
		bi := uint64(slot) & wheelL0Mask
		b := &w.head0[bi]
		wi := bi >> 6
		bit := uint64(1) << (bi & 63)
		if w.occ0[wi]&bit == 0 {
			w.occ0[wi] |= bit
			w.occ0sum |= 1 << wi
			b.slot = slot
			b.id = id
			b.idx = idx
			b.next = -1
			return
		}
		w.chain(b, idx, slot, id)
		return
	}
	// d >= wheelL0Size: the highest differing bit picks the upper level.
	l := uint(bits.Len64(d)-1-wheelL0Bits) / wheelBits
	bi := uint64(slot>>(wheelL0Bits+wheelBits*l)) & wheelMask
	b := &w.headUp[l][bi]
	if w.occUp[l]&(1<<bi) == 0 {
		w.occUp[l] |= 1 << bi
		b.slot = slot
		b.id = id
		b.idx = idx
		b.next = -1
		return
	}
	w.chain(b, idx, slot, id)
}

//go:noinline
func (w *timingWheel) pushPanic(slot int64) {
	panic(fmt.Sprintf("sim: timingWheel.Push(slot %d) behind cursor %d", slot, w.cur))
}

// link routes an event to its level and bucket relative to the current
// cursor. The level is where slot and cur first differ: all higher digits
// agree, so the bucket index — the slot's own digit at that level — is
// unambiguous within the cursor's block. An empty bucket takes the event
// inline; an occupied one chains it through the node array.
//
//lsbvet:hotpath
func (w *timingWheel) link(idx int32, slot, id int64) {
	d := uint64(slot ^ w.cur)
	if d < wheelL0Size {
		bi := uint64(slot) & wheelL0Mask
		b := &w.head0[bi]
		wi := bi >> 6
		bit := uint64(1) << (bi & 63)
		if w.occ0[wi]&bit == 0 {
			w.occ0[wi] |= bit
			w.occ0sum |= 1 << wi
			b.slot = slot
			b.id = id
			b.idx = idx
			b.next = -1
			return
		}
		w.chain(b, idx, slot, id)
		return
	}
	// d >= wheelL0Size: the highest differing bit picks the upper level.
	l := uint(bits.Len64(d)-1-wheelL0Bits) / wheelBits
	bi := uint64(slot>>(wheelL0Bits+wheelBits*l)) & wheelMask
	b := &w.headUp[l][bi]
	if w.occUp[l]&(1<<bi) == 0 {
		w.occUp[l] |= 1 << bi
		b.slot = slot
		b.id = id
		b.idx = idx
		b.next = -1
		return
	}
	w.chain(b, idx, slot, id)
}

// chain threads an event behind a bucket's inline head through the shared
// node array (growing it to cover idx and nodeHint — the only place the
// array grows).
//
//lsbvet:hotpath
func (w *timingWheel) chain(b *bucket, idx int32, slot, id int64) {
	if int(idx) >= len(w.nodes) {
		n := max(int(idx)+1, w.nodeHint)
		w.nodes = slices.Grow(w.nodes, n-len(w.nodes))[:n]
	}
	nd := &w.nodes[idx]
	nd.slot = slot
	nd.id = id
	nd.next = b.next
	b.next = idx
}

// nextAtMost returns the earliest pending slot if it is <= limit,
// advancing the cursor to it (cascading higher-level buckets down as it
// goes), so after a hit the caller may push at that slot or later. When
// the earliest slot exceeds limit — or no events are pending — it reports
// false and leaves the cursor at most at limit, so the caller remains free
// to push anything >= its own time floor.
//
//lsbvet:hotpath
func (w *timingWheel) nextAtMost(limit int64) (int64, bool) {
	// The floor is a proven lower bound on every pending slot, so a limit
	// below it is a miss before any scanning — this is the engine's common
	// "anything else at this slot?" probe after the slot's bucket emptied.
	if limit < w.floor || w.n == 0 {
		return 0, false
	}
	// A partially drained slot is by construction the minimum: the cursor
	// sits on it and nothing earlier can have been pushed since.
	if w.drainPos < w.drainLen {
		if w.drainSlot > limit {
			w.floor = w.drainSlot
			return 0, false
		}
		return w.drainSlot, true
	}
	for {
		// Level 0 holds exact slots within the cursor's 1024-slot block,
		// and every upper level holds strictly later slots, so its first
		// occupied bucket is the global minimum: summary word → first
		// nonempty occupancy word → first set bit.
		if sum := w.occ0sum; sum != 0 {
			wi := uint(bits.TrailingZeros64(sum))
			o := int64(wi)<<6 | int64(bits.TrailingZeros64(w.occ0[wi]))
			s := w.cur&^int64(wheelL0Mask) | o
			if s > limit {
				w.floor = s
				return 0, false
			}
			w.cur = s
			return s, true
		}
		if w.cascade(limit) {
			continue
		}
		return 0, false
	}
}

// cascade advances the cursor to the next occupied region at or before
// limit — the first occupied bucket of the lowest nonempty level — and
// re-places its events relative to the new cursor (each lands at a
// strictly lower level). It reports whether it moved anything; false
// means every pending event is beyond limit (or none is pending).
//
//lsbvet:hotpath
func (w *timingWheel) cascade(limit int64) bool {
	for l := uint(0); l < wheelUpper; l++ {
		occ := w.occUp[l]
		if occ == 0 {
			continue
		}
		shift := wheelL0Bits + wheelBits*l
		bi := int64(bits.TrailingZeros64(occ))
		// At the top level shift+wheelBits is 64, and Go shifts a
		// non-negative cur that far to 0, so base is just bi<<shift.
		base := w.cur>>(shift+wheelBits)<<(shift+wheelBits) | bi<<shift
		if base > limit {
			w.floor = base
			return false
		}
		w.cascades++
		w.cur = base
		b := w.headUp[l][bi]
		w.occUp[l] &^= 1 << uint64(bi)
		if l == 0 {
			// The hot cascade: a level-1 bucket spans exactly the cursor's
			// new 1024-slot block, so every event lands at level 0 — relink
			// inline, skipping link's level routing per event.
			idx, slot, id := b.idx, b.slot, b.id
			next := b.next
			for {
				b0 := uint64(slot) & wheelL0Mask
				t := &w.head0[b0]
				wi := b0 >> 6
				bit := uint64(1) << (b0 & 63)
				if w.occ0[wi]&bit == 0 {
					w.occ0[wi] |= bit
					w.occ0sum |= 1 << wi
					t.slot = slot
					t.id = id
					t.idx = idx
					t.next = -1
				} else {
					w.chain(t, idx, slot, id)
				}
				if next < 0 {
					return true
				}
				idx = next
				nd := &w.nodes[idx]
				slot, id, next = nd.slot, nd.id, nd.next
			}
		}
		w.link(b.idx, b.slot, b.id)
		for idx := b.next; idx >= 0; {
			nd := &w.nodes[idx]
			next := nd.next
			w.link(idx, nd.slot, nd.id)
			idx = next
		}
		return true
	}
	return false
}

// popAtMost removes and returns the earliest pending event if its slot is
// <= limit. Successive pops yield strict (slot, id) order. The body fuses
// nextAtMost's scan with the extraction so the hot singleton case — one
// event at the minimum slot, nothing buffered — runs straight-line: floor
// check, bitmap scan, one bucket-header read, done.
//
//lsbvet:hotpath
func (w *timingWheel) popAtMost(limit int64) (event, bool) {
	if limit < w.floor || w.n == 0 {
		return event{}, false
	}
	if w.drainPos < w.drainLen {
		// A partially drained slot is by construction the minimum; fold in
		// any same-slot events pushed since the last pop before serving.
		s := w.drainSlot
		if s > limit {
			w.floor = s
			return event{}, false
		}
		if bi := uint64(s) & wheelL0Mask; w.occ0[bi>>6]&(1<<(bi&63)) != 0 {
			w.foldBucket(bi, s)
		}
		return w.serveDrain(), true
	}
	for {
		if sum := w.occ0sum; sum != 0 {
			wi := uint(bits.TrailingZeros64(sum))
			word := w.occ0[wi]
			o := int64(wi)<<6 | int64(bits.TrailingZeros64(word))
			s := w.cur&^int64(wheelL0Mask) | o
			if s > limit {
				w.floor = s
				return event{}, false
			}
			w.cur = s
			bi := uint64(s) & wheelL0Mask
			b := &w.head0[bi]
			h := b.next
			if h < 0 {
				// Singleton bucket — the steady-state sparse case — serves
				// straight from the header, paying for no buffering or
				// sorting at all, and proves the remaining minimum is past
				// this slot.
				word &^= 1 << (bi & 63)
				w.occ0[wi] = word
				if word == 0 {
					w.occ0sum = sum &^ (1 << wi)
				}
				w.n--
				w.floor = s + 1
				return event{slot: s, id: b.id, idx: b.idx}, true
			}
			if nd := &w.nodes[h]; nd.next < 0 {
				// Exactly two events: serve the smaller id and demote the
				// other to a singleton header — no buffering or sorting.
				w.n--
				if nd.id < b.id {
					b.next = -1
					return event{slot: s, id: nd.id, idx: h}, true
				}
				ev := event{slot: s, id: b.id, idx: b.idx}
				b.id = nd.id
				b.idx = h
				b.next = -1
				return ev, true
			}
			w.foldBucket(bi, s)
			return w.serveDrain(), true
		}
		if !w.cascade(limit) {
			return event{}, false
		}
	}
}

// serveDrain pops the drain's front event, tightening the floor when the
// drain empties (nothing at or before its slot can remain).
func (w *timingWheel) serveDrain() event {
	var ev event
	if w.drainPacked {
		k := w.drainKeys[w.drainPos]
		ev = event{slot: w.drainSlot, id: int64(k >> 32), idx: int32(uint32(k))}
	} else {
		ev = w.drain[w.drainPos]
	}
	w.drainPos++
	w.n--
	if w.drainPos == w.drainLen {
		w.floor = ev.slot + 1
	}
	return ev
}

// foldBucket moves the located slot's level-0 bucket — freshly reached, or
// same-slot events pushed since the last pop — into the drain buffer and
// keeps the unconsumed tail id-sorted. Each event is moved and sorted once
// per slot resolution, and the buffers' storage is reused run-long.
func (w *timingWheel) foldBucket(bi uint64, s int64) {
	if w.drainPos == w.drainLen {
		w.drainKeys = w.drainKeys[:0]
		w.drain = w.drain[:0]
		w.drainPos = 0
		w.drainLen = 0
		w.drainPacked = true
	}
	w.drainSlot = s
	b := &w.head0[bi]
	if w.drainPacked {
		mark := len(w.drainKeys)
		big := b.id
		w.drainKeys = append(w.drainKeys, uint64(b.id)<<32|uint64(uint32(b.idx)))
		for idx := b.next; idx >= 0; idx = w.nodes[idx].next {
			id := w.nodes[idx].id
			big |= id
			w.drainKeys = append(w.drainKeys, uint64(id)<<32|uint64(uint32(idx)))
		}
		if big>>31 == 0 {
			w.clearL0(bi)
			w.drainLen = len(w.drainKeys)
			w.sortKeyTail()
			return
		}
		// Rare: an id needs more than 31 bits, so packed keys would lose
		// bits. Drop this fold's keys, convert the pending remainder to
		// structs, and refold the (untouched) bucket below.
		w.drainKeys = w.drainKeys[:mark]
		w.depackDrain()
	}
	w.drain = append(w.drain, event{slot: s, id: b.id, idx: b.idx})
	for idx := b.next; idx >= 0; idx = w.nodes[idx].next {
		w.drain = append(w.drain, event{slot: s, id: w.nodes[idx].id, idx: idx})
	}
	w.clearL0(bi)
	w.drainLen = len(w.drain)
	w.sortDrainTail()
}

// clearL0 clears level-0 bucket bi's occupancy bit, dropping the summary
// bit when its word empties.
func (w *timingWheel) clearL0(bi uint64) {
	wi := bi >> 6
	w.occ0[wi] &^= 1 << (bi & 63)
	if w.occ0[wi] == 0 {
		w.occ0sum &^= 1 << wi
	}
}

// depackDrain converts the drain's pending packed keys to structs and
// switches the drain to struct mode — the cold path for ids past 31 bits.
//
//go:noinline
func (w *timingWheel) depackDrain() {
	w.drain = w.drain[:0]
	for _, k := range w.drainKeys[w.drainPos:w.drainLen] {
		w.drain = append(w.drain, event{slot: w.drainSlot, id: int64(k >> 32), idx: int32(uint32(k))})
	}
	w.drainKeys = w.drainKeys[:0]
	w.drainPos = 0
	w.drainLen = len(w.drain)
	w.drainPacked = false
}

// sortKeyTail sorts the drain's pending packed keys ascending — by id,
// with the idx low bits breaking (never-occurring) ties — entirely without
// data-dependent branches: one compare-exchange for a pair, a Batcher
// network for small tails, LSD radix over the id bytes for large ones.
func (w *timingWheel) sortKeyTail() {
	a := w.drainKeys[w.drainPos:]
	switch {
	case len(a) <= 1:
	case len(a) == 2:
		a[0], a[1] = min(a[0], a[1]), max(a[0], a[1])
	case len(a) <= 8:
		sortNet8(a)
	case len(a) <= 16:
		sortNet16(a)
	default:
		w.radixKeys(a)
	}
}

// radixKeys sorts packed keys ascending by their id bytes (ids are unique,
// so the idx bits never decide the order): one counting pass per
// significant byte, skipping constant bytes, ping-ponging between a and
// the run-long scratch buffer.
func (w *timingWheel) radixKeys(a []uint64) {
	var maxK uint64
	for _, k := range a {
		maxK = max(maxK, k)
	}
	if cap(w.keyBuf) < len(a) {
		w.keyBuf = make([]uint64, len(a))
	}
	src, dst := a, w.keyBuf[:len(a)]
	for shift := uint(32); shift < 64 && maxK>>shift != 0; shift += 8 {
		var count [256]int32
		for _, k := range src {
			count[uint8(k>>shift)]++
		}
		if count[uint8(src[0]>>shift)] == int32(len(src)) {
			continue
		}
		var pos int32
		for i := range count {
			c := count[i]
			count[i] = pos
			pos += c
		}
		for _, k := range src {
			d := uint8(k >> shift)
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// sortDrainTail id-sorts the unconsumed drain tail without going through a
// comparator closure: small tails use a direct insertion sort, large ones
// an LSD radix sort over the id bytes (ids are non-negative by the Push
// contract, so unsigned byte order is value order). This is what keeps
// deep same-slot fan-in — a batch backlog resolving tens of thousands of
// stations at one slot — near O(1) per event instead of O(log k) indirect
// comparisons each.
func (w *timingWheel) sortDrainTail() {
	a := w.drain[w.drainPos:]
	if len(a) <= 32 {
		for i := 1; i < len(a); i++ {
			ev := a[i]
			j := i - 1
			for j >= 0 && a[j].id > ev.id {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = ev
		}
		return
	}
	w.radixSortByID(a)
}

// radixSortByID sorts a by id ascending: one counting pass per significant
// id byte, ping-ponging between a and the run-long scratch buffer, copying
// back if the final pass landed in scratch.
func (w *timingWheel) radixSortByID(a []event) {
	var maxID int64
	for i := range a {
		if a[i].id > maxID {
			maxID = a[i].id
		}
	}
	if cap(w.sortBuf) < len(a) {
		w.sortBuf = make([]event, len(a))
	}
	src, dst := a, w.sortBuf[:len(a)]
	for shift := uint(0); shift == 0 || maxID>>shift != 0; shift += 8 {
		var count [256]int32
		for i := range src {
			count[uint8(src[i].id>>shift)]++
		}
		var pos int32
		for i := range count {
			c := count[i]
			count[i] = pos
			pos += c
		}
		for i := range src {
			d := uint8(src[i].id >> shift)
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
