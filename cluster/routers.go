package cluster

import "lowsensing/prng"

// The four built-in routers. The lowsensing root package registers them
// under the kinds "random", "roundrobin", "leastbacklog", and "sticky"
// (see lowsensing.RegisterRouter); construct them directly here for
// programmatic use.

// randomRouter assigns each packet to a uniformly random channel from its
// own deterministic stream.
type randomRouter struct {
	rng prng.Source
}

// NewRandom returns a router assigning each packet to a uniformly random
// channel, drawn from a stream derived from seed. Single-use.
func NewRandom(seed uint64) Router {
	r := &randomRouter{}
	r.rng = *prng.NewStream(seed, 0x726f7574) // "rout"
	return r
}

func (r *randomRouter) Route(id, slot int64, v View) int {
	return int(r.rng.Uint64n(uint64(v.Channels())))
}

func (r *randomRouter) NeedsBacklog() bool { return false }

// rrRouter cycles through channels in index order.
type rrRouter struct {
	next int
}

// NewRoundRobin returns a router cycling through channels 0, 1, ..., C-1,
// 0, ... in global arrival order. Single-use.
func NewRoundRobin() Router { return &rrRouter{} }

func (r *rrRouter) Route(id, slot int64, v View) int {
	ch := r.next
	r.next++
	if r.next == v.Channels() {
		r.next = 0
	}
	return ch
}

func (r *rrRouter) NeedsBacklog() bool { return false }

// lbRouter joins the channel with the fewest live packets.
type lbRouter struct{}

// NewLeastBacklog returns a router assigning each packet to the channel
// with the smallest live backlog at its arrival slot, lowest index on
// ties.
func NewLeastBacklog() Router { return lbRouter{} }

func (lbRouter) Route(id, slot int64, v View) int {
	best, bestLoad := 0, v.Backlog(0)
	for ch := 1; ch < v.Channels(); ch++ {
		if l := v.Backlog(ch); l < bestLoad {
			best, bestLoad = ch, l
		}
	}
	return best
}

func (lbRouter) NeedsBacklog() bool { return true }

// stickyRouter hashes a flow key to a channel, so packets of one flow
// always land together.
type stickyRouter struct {
	salt  uint64
	flows int64
}

// NewSticky returns an affinity router: each packet's flow key is hashed
// (salted from seed) to a fixed channel. With flows > 0 the key is
// id % flows — modeling `flows` long-lived flows whose packets must stay
// on one channel; with flows <= 0 every packet is its own flow, making
// sticky a stateless uniform hash.
func NewSticky(seed uint64, flows int64) Router {
	return &stickyRouter{salt: prng.Mix64(seed ^ 0x7374636b), flows: flows} // "stck"
}

func (s *stickyRouter) Route(id, slot int64, v View) int {
	key := id
	if s.flows > 0 {
		key = id % s.flows
	}
	return int(prng.Mix64(s.salt^uint64(key)) % uint64(v.Channels()))
}

func (s *stickyRouter) NeedsBacklog() bool { return false }
