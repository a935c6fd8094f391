// Package core implements LOW-SENSING BACKOFF, the contention-resolution
// algorithm of Bender, Fineman, Gilbert, Kuszmaul, and Young, "Fully
// Energy-Efficient Randomized Backoff: Slow Feedback Loops Yield Fast
// Contention Resolution" (PODC 2024), Figure 1.
//
// Each packet keeps a window w, initially WMin. In every slot the packet
// accesses the channel (listens) with probability c·ln^k(w)/w and,
// conditioned on accessing, sends with probability 1/(c·ln^k(w)) — so the
// unconditional send probability is exactly 1/w. On hearing silence the
// window shrinks by the factor 1 + 1/(c·ln w) (down to WMin); on hearing
// noise it grows by the same factor; on hearing someone else's success it
// is unchanged. The paper fixes k = 3; the exponent is configurable here so
// ablation experiments can probe the design space.
package core

import (
	"fmt"
	"math"

	"lowsensing/channel"
	"lowsensing/internal/dist"
	"lowsensing/prng"
)

// Config holds the parameters of LOW-SENSING BACKOFF.
//
// The paper requires c to be a sufficiently large constant and WMin to be a
// sufficiently large constant with WMin > 2 and WMin/ln^k(WMin) >= c; the
// latter guarantees the access probability never exceeds 1. Those constants
// trade constant-factor throughput against the polylog energy constant;
// Default returns a practical operating point (ablation A2 of the
// `experiments -scale full` run maps the sensitivity).
type Config struct {
	// C is the constant c of the algorithm.
	C float64
	// WMin is the minimum (and initial) window size.
	WMin float64
	// LnPower is the exponent k in the access probability c·ln^k(w)/w.
	// The paper uses 3.
	LnPower float64
	// Update selects the window update rule. The zero value is the paper's
	// slow multiplicative rule; UpdateDoubling is the classic-backoff
	// ablation (experiment A1 in internal/harness).
	Update UpdateRule
}

// UpdateRule selects how the window reacts to feedback.
type UpdateRule int

// Window update rules.
const (
	// UpdatePaper is the paper's rule: multiply or divide by
	// 1 + 1/(c·ln w).
	UpdatePaper UpdateRule = iota
	// UpdateDoubling is the ablation rule: double on noise, halve on
	// silence. It overshoots — the slow feedback loop mis-tracks
	// contention when each observation moves the window a whole octave.
	UpdateDoubling
)

// Default returns the reference configuration used by the experiments:
// c = 0.5, w_min = 8, k = 3. It satisfies Validate.
func Default() Config {
	return Config{C: 0.5, WMin: 8, LnPower: 3}
}

// Validate checks the constraints the paper places on the parameters.
func (c Config) Validate() error {
	if !(c.C > 0) || math.IsInf(c.C, 0) || math.IsNaN(c.C) {
		return fmt.Errorf("core: C must be positive and finite, got %v", c.C)
	}
	if !(c.WMin > 2) || math.IsInf(c.WMin, 0) {
		return fmt.Errorf("core: WMin must be > 2, got %v", c.WMin)
	}
	if !(c.LnPower >= 0) || math.IsNaN(c.LnPower) {
		return fmt.Errorf("core: LnPower must be >= 0, got %v", c.LnPower)
	}
	lnW := math.Log(c.WMin)
	switch p, _ := c.rawProbs(c.WMin, lnW); {
	case p > 1:
		return fmt.Errorf("core: access probability at WMin is %v > 1; need C·ln^k(WMin) <= WMin", p)
	case !(p > 0): // also catches NaN
		return fmt.Errorf("core: access probability at WMin is %v: C·ln^k(WMin)/WMin underflows (ln WMin = %v raised to k = %v); raise WMin or lower LnPower", p, lnW, c.LnPower)
	}
	if c.Update != UpdatePaper && c.Update != UpdateDoubling {
		return fmt.Errorf("core: unknown update rule %d", c.Update)
	}
	return nil
}

// rawProbs returns the access probability c·ln^k(w)/w and the conditional
// send probability 1/(c·ln^k(w)), before clamping at 1, given lnW = ln w.
// It is the one place the formulas live: the public methods, Validate and
// a packet's cached window state all evaluate them here, so the cache is
// bit-identical to the methods by construction.
func (c Config) rawProbs(w, lnW float64) (access, send float64) {
	lnk := lnPow(lnW, c.LnPower)
	return c.C * lnk / w, 1 / (c.C * lnk)
}

// maxIntPow is the largest exponent intPow evaluates itself.
const maxIntPow = 8

// lnPow returns math.Pow(x, k), bit for bit, for every x that math.Log
// returns other than NaN. Integer exponents up to maxIntPow, the paper's
// k = 3 among them, skip math.Pow's special-case dispatch and Frexp/Ldexp
// scaling through intPow.
func lnPow(x, k float64) float64 {
	if p, ok := intPow(x, k); ok {
		return p
	}
	return math.Pow(x, k)
}

// intPow returns x^k when k is an integer in [0, maxIntPow], and ok = false
// otherwise. It multiplies in the order math.Pow does (a *= x on each set
// bit of k, low bit first, x *= x after each), but on x itself rather than
// on its Frexp mantissa. Scaling by a power of two rounds no differently,
// so the two agree bit for bit whenever no product leaves the normal range:
// for x = ln w, |x| is 0 or lies in [2^-53, 745], and the largest product
// formed, x^16, stays inside it.
func intPow(x, k float64) (p float64, ok bool) {
	if !(k >= 0 && k <= maxIntPow) {
		return 0, false
	}
	n := int(k)
	if float64(n) != k {
		return 0, false
	}
	p = 1
	for ; n != 0; n >>= 1 {
		if n&1 == 1 {
			p *= x
		}
		x *= x
	}
	return p, true
}

// clampProb caps a probability at 1.
func clampProb(p float64) float64 {
	if p > 1 {
		return 1
	}
	return p
}

// AccessProb returns the probability that a packet with window w accesses
// (listens to) the channel in a slot: min(1, c·ln^k(w)/w).
func (c Config) AccessProb(w float64) float64 {
	access, _ := c.rawProbs(w, math.Log(w))
	return clampProb(access)
}

// SendProbGivenAccess returns the probability that an accessing packet also
// sends: min(1, 1/(c·ln^k(w))). The unconditional send probability is the
// product AccessProb(w)·SendProbGivenAccess(w), which equals 1/w whenever
// neither factor is clamped.
func (c Config) SendProbGivenAccess(w float64) float64 {
	_, send := c.rawProbs(w, math.Log(w))
	return clampProb(send)
}

// updateFactor returns the multiplicative step 1 + 1/(c·ln w), given
// lnW = ln w, used by both back-off (grow) and back-on (shrink).
func (c Config) updateFactor(lnW float64) float64 { return 1 + 1/(c.C*lnW) }

// Backoff returns the window after hearing a noisy slot.
func (c Config) Backoff(w float64) float64 { return c.backoff(w, math.Log(w)) }

// Backon returns the window after hearing a silent slot, floored at WMin.
func (c Config) Backon(w float64) float64 { return c.backon(w, math.Log(w)) }

// backoff is Backoff given lnW = ln w.
func (c Config) backoff(w, lnW float64) float64 {
	if c.Update == UpdateDoubling {
		return w * 2
	}
	return w * c.updateFactor(lnW)
}

// backon is Backon given lnW = ln w.
func (c Config) backon(w, lnW float64) float64 {
	var w2 float64
	if c.Update == UpdateDoubling {
		w2 = w / 2
	} else {
		w2 = w / c.updateFactor(lnW)
	}
	if w2 < c.WMin {
		return c.WMin
	}
	return w2
}

// window is everything a packet derives from its window w: ln w, the
// clamped conditional send probability, and the sampler of the gap to the
// next access, whose p is the clamped access probability. It is a function
// of w alone, so a packet recomputes it only when its window moves to one
// its factory's memo does not hold.
type window struct {
	w, lnW, send float64
	access       dist.Geom
}

// window returns the window state at w.
func (c Config) window(w float64) window {
	lnW := math.Log(w)
	access, send := c.rawProbs(w, lnW)
	return window{w: w, lnW: lnW, send: clampProb(send), access: dist.NewGeom(clampProb(access))}
}

// shared is what every packet of one configuration reads and none writes:
// the configuration and its window state at WMin, computed once.
type shared struct {
	cfg  Config
	wmin window
}

// memoBits sizes the window memo at 1<<memoBits entries. Sixteen entries
// (640 B) catch most of the revisits a table of 64 does; a larger table
// costs resident memory in sweeps that build a factory per job and look up
// only a few windows in each.
const memoBits = 4

// memoSize is the number of entries in the window memo.
const memoSize = 1 << memoBits

// local is the one allocation a NewFactory or NewPacket call makes for
// its packets: the shared state they read, and a direct-mapped memo of
// window states, keyed on the window's bits, that they write. Window state
// is a pure function of w, so a hit returns exactly what recomputing would.
// The memo is allocated on the first miss, so validating a configuration or
// building a factory that never moves a window allocates none.
type local struct {
	shared
	memo *[memoSize]window
}

// newLocal validates cfg and returns the state for its packets, with the
// WMin state computed and the memo not yet allocated.
func newLocal(cfg Config) (*local, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &local{shared: shared{cfg: cfg, wmin: cfg.window(cfg.WMin)}}, nil
}

// memoSlot maps a window to its memo entry by a multiplicative hash of its
// bits.
func memoSlot(w float64) uint64 {
	return math.Float64bits(w) * 0x9e3779b97f4a7c15 >> (64 - memoBits)
}

// lookup returns the memo entry holding the window state at w, computing
// it into the entry on a miss. Windows are at least WMin > 2, so an entry
// never written (w = 0) never matches.
func (l *local) lookup(w float64) *window {
	m := l.memo
	if m == nil {
		m = new([memoSize]window)
		l.memo = m
	}
	e := &m[memoSlot(w)]
	if math.Float64bits(e.w) != math.Float64bits(w) {
		*e = l.cfg.window(w)
	}
	return e
}

// Packet is one packet running LOW-SENSING BACKOFF. It implements
// channel.Station (event-driven scheduling). A Packet is not safe for
// concurrent use, and neither are the other packets of its factory: they
// share one window memo.
//
// A packet caches its window state next to the window, so an access that
// leaves the window where it is, or returns it to WMin, costs the geometric
// draw's table logarithm. A move to any other window looks the state up in
// the factory's 16-entry memo: a hit copies 40 bytes, and only a miss
// recomputes ln w, the power and the sampler's 1/ln(1-p).
type Packet struct {
	lc  *local
	win window
}

var (
	_ channel.Station         = (*Packet)(nil)
	_ channel.Windowed        = (*Packet)(nil)
	_ channel.ReusableStation = (*Packet)(nil)
)

// NewPacket returns a packet in its initial state (window WMin). It returns
// an error if the configuration is invalid.
func NewPacket(cfg Config) (*Packet, error) {
	lc, err := newLocal(cfg)
	if err != nil {
		return nil, err
	}
	return &Packet{lc: lc, win: lc.wmin}, nil
}

// NewFactory validates cfg once and returns a channel.StationFactory producing
// LOW-SENSING BACKOFF packets.
//
// The packets of one factory share a window memo that they write as their
// windows move, so a factory serves one goroutine at a time: one engine, or
// one cluster's serially stepped channels. Runs that execute concurrently
// each need their own factory.
func NewFactory(cfg Config) (channel.StationFactory, error) {
	lc, err := newLocal(cfg)
	if err != nil {
		return nil, err
	}
	return func(_ int64, _ *prng.Source) channel.Station {
		return &Packet{lc: lc, win: lc.wmin}
	}, nil
}

// MustFactory is NewFactory for known-good configurations; it panics on an
// invalid config. Intended for examples and tests.
func MustFactory(cfg Config) channel.StationFactory {
	f, err := NewFactory(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Reset implements channel.ReusableStation: a recycled packet restarts at
// window WMin, exactly as NewFactory constructs it, by copying the shared
// WMin state (the factory draws nothing from the rng, so neither does
// Reset).
func (p *Packet) Reset(_ int64, _ *prng.Source) { p.win = p.lc.wmin }

// Window returns the packet's current window size.
func (p *Packet) Window() float64 { return p.win.w }

// Config returns the packet's configuration.
func (p *Packet) Config() Config { return p.lc.cfg }

// ScheduleNext implements channel.Station. The access probability is constant
// between accesses (the window changes only on access), so the gap to the
// next access is exactly Geometric(AccessProb(w)).
//
//lsbvet:hotpath
func (p *Packet) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	gap := p.win.access.Draw(rng)
	send := rng.Bernoulli(p.win.send)
	return from + gap - 1, send
}

// Observe implements channel.Station: apply the multiplicative window update
// for the observed outcome. A packet that sent and did not succeed knows
// the slot was noisy without listening (paper footnote 2); a heard success
// (someone else's) leaves the window unchanged.
//
//lsbvet:hotpath
func (p *Packet) Observe(obs channel.Observation) {
	switch {
	case obs.Succeeded:
		// Departing; no state to maintain.
	case obs.Outcome == channel.OutcomeNoisy:
		p.moveTo(p.lc.cfg.backoff(p.win.w, p.win.lnW))
	case obs.Outcome == channel.OutcomeEmpty:
		p.moveTo(p.lc.cfg.backon(p.win.w, p.win.lnW))
	case obs.Outcome == channel.OutcomeSuccess:
		// Someone else succeeded: no change.
	}
}

// moveTo sets the window to w, keeping the state when w is the current
// window, copying the shared state when w is WMin, and taking it from the
// memo otherwise.
func (p *Packet) moveTo(w float64) {
	switch w {
	case p.win.w:
	case p.lc.wmin.w:
		p.win = p.lc.wmin
	default:
		p.win = *p.lc.lookup(w)
	}
}
