// Package ext demonstrates the lowsensing extension surface with two
// components the paper did not ship, implemented entirely outside the
// module's internal packages:
//
//   - LogBackoff, an oblivious "log-backoff" baseline protocol whose
//     window grows as w0·(k+1)·log2(k+2) after k collisions — barely
//     superlinear, between linear and quadratic polynomial backoff.
//   - GilbertElliott, a bursty-channel jammer driven by the classic
//     Gilbert–Elliott two-state Markov model: the channel alternates
//     between a Good state (clean) and a Bad state (jammed), with
//     geometrically distributed dwell times.
//
// Both register themselves with the lowsensing kind registries at init
// time, so importing this package (even blank: `import _ ".../examples/ext"`)
// makes the kinds "logbackoff" and "gilbert_elliott" resolvable from
// Scenario/SweepSpec JSON, Sweep axes, and the CLIs exactly like built-ins.
// Everything here uses only the public API (lowsensing, lowsensing/channel,
// lowsensing/prng): it is exactly the code an external module would write.
package ext

import (
	"fmt"
	"math"

	"lowsensing"
	"lowsensing/channel"
	"lowsensing/prng"
)

// Registered kind names.
const (
	// KindLogBackoff is the log-backoff protocol kind.
	KindLogBackoff = "logbackoff"
	// KindGilbertElliott is the bursty-channel jammer kind.
	KindGilbertElliott = "gilbert_elliott"
)

func init() {
	lowsensing.RegisterProtocol(KindLogBackoff,
		"log-backoff baseline: oblivious window w0*(k+1)*log2(k+2) after k collisions (params: w0, default 2)",
		NewLogBackoffFactory)
	lowsensing.RegisterJammer(KindGilbertElliott,
		"Gilbert-Elliott bursty channel: Good/Bad Markov chain, Bad slots jammed (params: p_gb, p_bg; defaults 0.01, 0.1)",
		NewGilbertElliott)
}

// LogBackoff is one packet running log-backoff: it picks a uniform slot
// within its current window and transmits there, growing the window to
// w0·(k+1)·log2(k+2) after the k-th collision. Like BEB it is oblivious —
// it never listens, its only feedback is whether its own send succeeded.
type LogBackoff struct {
	w0         int64
	collisions int64
}

// NewLogBackoffFactory builds log-backoff stations from a spec. The only
// parameter is params["w0"], the initial window (default 2).
func NewLogBackoffFactory(spec lowsensing.ProtocolSpec) (lowsensing.StationFactory, error) {
	w0 := int64(2)
	if v, ok := spec.Params["w0"]; ok {
		w0 = int64(v)
	}
	if w0 < 1 {
		return nil, fmt.Errorf("ext: logbackoff w0 must be >= 1, got %d", w0)
	}
	return func(_ int64, _ *prng.Source) channel.Station {
		return &LogBackoff{w0: w0}
	}, nil
}

// Window returns the current window w0·(k+1)·log2(k+2) (for window-sampling recorders).
func (l *LogBackoff) Window() float64 {
	k := float64(l.collisions)
	return float64(l.w0) * (k + 1) * math.Log2(k+2)
}

// ScheduleNext implements channel.Station.
func (l *LogBackoff) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	w := int64(l.Window())
	if w < 1 {
		w = 1
	}
	return from + rng.Int63n(w), true
}

// Observe implements channel.Station: grow the window after a failed send.
func (l *LogBackoff) Observe(obs channel.Observation) {
	if obs.Sent && !obs.Succeeded {
		l.collisions++
	}
}

var (
	_ channel.Station  = (*LogBackoff)(nil)
	_ channel.Windowed = (*LogBackoff)(nil)
)

// GilbertElliott jams according to the Gilbert–Elliott bursty-channel
// model: a two-state Markov chain over {Good, Bad} advanced once per slot,
// where every Bad slot is jammed. From Good the channel moves to Bad with
// probability pGB per slot, from Bad back to Good with probability pBG, so
// bursts last 1/pBG slots on average and arrive every 1/pGB slots.
//
// The chain is advanced lazily and in O(state flips), not O(slots): dwell
// times are geometric, so the jammer samples the length of each stretch
// directly and CountRange answers over a skipped range by intersecting it
// with the sampled stretches. Per the channel.Jammer contract the engine
// consults nondecreasing slots and covers every active slot exactly once,
// which is what makes the sequential sampling deterministic per seed.
// Slots outside busy periods are never consulted; the chain simply does
// not advance across them (an adversary wastes nothing on an idle channel).
type GilbertElliott struct {
	pGB, pBG float64
	rng      *prng.Source
	bad      bool
	flipAt   int64 // first slot at which the state differs from bad
}

// NewGilbertElliott builds the jammer from a spec. Parameters (all
// optional): params["p_gb"], the per-slot Good→Bad probability (default
// 0.01), and params["p_bg"], the per-slot Bad→Good probability (default
// 0.1). Both must lie in (0, 1].
func NewGilbertElliott(spec lowsensing.JammerSpec, seed uint64) (lowsensing.Jammer, error) {
	pGB, pBG := 0.01, 0.1
	if v, ok := spec.Params["p_gb"]; ok {
		pGB = v
	}
	if v, ok := spec.Params["p_bg"]; ok {
		pBG = v
	}
	if !(pGB > 0 && pGB <= 1) {
		return nil, fmt.Errorf("ext: gilbert_elliott p_gb must be in (0,1], got %v", pGB)
	}
	if !(pBG > 0 && pBG <= 1) {
		return nil, fmt.Errorf("ext: gilbert_elliott p_bg must be in (0,1], got %v", pBG)
	}
	g := &GilbertElliott{pGB: pGB, pBG: pBG, rng: prng.NewStream(seed, 0x67656a61 /* "geja" */)}
	g.flipAt = g.stretch() // the chain starts Good at slot 0
	return g, nil
}

// stretch samples the geometric dwell time of the current state: the
// number of slots until the next flip, distributed Geometric(p) where p is
// the per-slot probability of leaving the state.
func (g *GilbertElliott) stretch() int64 {
	p := g.pGB
	if g.bad {
		p = g.pBG
	}
	if p >= 1 {
		return 1
	}
	// Inverse-CDF: floor(ln U / ln(1-p)) + 1 for U uniform in (0,1).
	return int64(math.Log(g.rng.Float64Open())/math.Log1p(-p)) + 1
}

// advanceTo flips the chain forward until slot's state is decided.
func (g *GilbertElliott) advanceTo(slot int64) {
	for g.flipAt <= slot {
		g.bad = !g.bad
		g.flipAt += g.stretch()
	}
}

// Jammed implements channel.Jammer: a slot is jammed iff the chain is Bad.
func (g *GilbertElliott) Jammed(slot int64) bool {
	g.advanceTo(slot)
	return g.bad
}

// CountRange implements channel.Jammer: the number of Bad slots in
// [from, to), computed by walking the sampled stretches.
func (g *GilbertElliott) CountRange(from, to int64) int64 {
	var n int64
	cur := from
	for cur < to {
		if g.flipAt <= cur {
			g.bad = !g.bad
			g.flipAt += g.stretch()
			continue
		}
		end := min(g.flipAt, to)
		if g.bad {
			n += end - cur
		}
		cur = end
	}
	return n
}

var _ channel.Jammer = (*GilbertElliott)(nil)
