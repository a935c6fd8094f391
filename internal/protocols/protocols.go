// Package protocols implements the baseline contention-resolution
// algorithms the experiments compare LOW-SENSING BACKOFF against:
//
//   - Binary exponential backoff (Metcalfe–Boggs 1976): oblivious, windowed;
//     the paper cites its Θ(1/ln N) batch throughput as the motivating
//     failure.
//   - Polynomial backoff (Håstad–Leighton–Rogoff 1987): windowed with
//     polynomially growing windows.
//   - Slotted ALOHA with a fixed rate, and a genie-assisted variant that
//     always knows the exact backlog (an oracle upper bound, not a
//     realizable protocol).
//   - Full-sensing multiplicative weights in the style of Chang–Jin–Pettie
//     (SOSA 2019): listens in every slot and nudges its sending probability
//     after each one. Constant throughput, but energy linear in the number
//     of active slots — the short-feedback-loop regime the paper escapes.
//   - Fixed-probability sender, as an ablation control.
//
// All protocols implement channel.Station and are exercised by the same engine
// and metrics as the core algorithm.
package protocols

import (
	"fmt"
	"math"

	"lowsensing/channel"
	"lowsensing/internal/dist"
	"lowsensing/prng"
)

// BEB is one packet running binary exponential backoff: it picks a uniform
// slot within its current window, transmits there, and doubles the window
// after every collision. It never listens (its only feedback is whether its
// own transmission succeeded), making it oblivious in the paper's sense.
type BEB struct {
	window int64
	init   int64
	max    int64
}

// NewBEBFactory returns a factory for binary exponential backoff stations
// with the given initial window (classically 2). maxWindow caps growth
// (<= 0 means uncapped).
func NewBEBFactory(initialWindow, maxWindow int64) (channel.StationFactory, error) {
	if initialWindow < 1 {
		return nil, fmt.Errorf("protocols: BEB initial window must be >= 1, got %d", initialWindow)
	}
	if maxWindow > 0 && maxWindow < initialWindow {
		return nil, fmt.Errorf("protocols: BEB max window %d < initial %d", maxWindow, initialWindow)
	}
	return func(_ int64, _ *prng.Source) channel.Station {
		return &BEB{window: initialWindow, init: initialWindow, max: maxWindow}
	}, nil
}

// Reset implements channel.ReusableStation: back to the initial window.
func (b *BEB) Reset(_ int64, _ *prng.Source) { b.window = b.init }

// Window returns the current window (for window-sampling recorders).
func (b *BEB) Window() float64 { return float64(b.window) }

// ScheduleNext implements channel.Station.
func (b *BEB) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	return from + rng.Int63n(b.window), true
}

// Observe implements channel.Station: double the window after a failed send.
func (b *BEB) Observe(obs channel.Observation) {
	if obs.Sent && !obs.Succeeded {
		b.window *= 2
		if b.max > 0 && b.window > b.max {
			b.window = b.max
		}
	}
}

var (
	_ channel.Station         = (*BEB)(nil)
	_ channel.Windowed        = (*BEB)(nil)
	_ channel.ReusableStation = (*BEB)(nil)
)

// Poly is polynomial backoff: after the k-th collision the window is
// w0·(k+1)^alpha. Like BEB it is oblivious and send-only.
type Poly struct {
	w0         int64
	alpha      float64
	collisions int64
}

// NewPolyFactory returns a factory for polynomial backoff with window
// w0·(k+1)^alpha after k collisions. alpha must be positive.
func NewPolyFactory(w0 int64, alpha float64) (channel.StationFactory, error) {
	if w0 < 1 {
		return nil, fmt.Errorf("protocols: Poly w0 must be >= 1, got %d", w0)
	}
	if !(alpha > 0) {
		return nil, fmt.Errorf("protocols: Poly alpha must be > 0, got %v", alpha)
	}
	return func(_ int64, _ *prng.Source) channel.Station {
		return &Poly{w0: w0, alpha: alpha}
	}, nil
}

// Reset implements channel.ReusableStation: forget every collision.
func (p *Poly) Reset(_ int64, _ *prng.Source) { p.collisions = 0 }

// Window returns the current window.
func (p *Poly) Window() float64 {
	return float64(p.w0) * math.Pow(float64(p.collisions+1), p.alpha)
}

// ScheduleNext implements channel.Station.
func (p *Poly) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	w := int64(p.Window())
	if w < 1 {
		w = 1
	}
	return from + rng.Int63n(w), true
}

// Observe implements channel.Station.
func (p *Poly) Observe(obs channel.Observation) {
	if obs.Sent && !obs.Succeeded {
		p.collisions++
	}
}

var (
	_ channel.Station         = (*Poly)(nil)
	_ channel.ReusableStation = (*Poly)(nil)
)

// Aloha is slotted ALOHA with a fixed transmission probability: each slot,
// send with probability p. Send-only, no adaptation.
type Aloha struct {
	gap dist.Geom // slots to the next send: Geometric(p)
}

// NewAlohaFactory returns fixed-rate slotted ALOHA stations. p must be in
// (0, 1].
func NewAlohaFactory(p float64) (channel.StationFactory, error) {
	if !(p > 0 && p <= 1) {
		return nil, fmt.Errorf("protocols: Aloha p must be in (0,1], got %v", p)
	}
	gap := dist.NewGeom(p)
	return func(_ int64, _ *prng.Source) channel.Station {
		return &Aloha{gap: gap}
	}, nil
}

// Reset implements channel.ReusableStation: fixed-rate ALOHA is stateless.
func (a *Aloha) Reset(int64, *prng.Source) {}

// ScheduleNext implements channel.Station.
func (a *Aloha) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	return from + a.gap.Draw(rng) - 1, true
}

// Observe implements channel.Station (fixed-rate ALOHA never adapts).
func (a *Aloha) Observe(channel.Observation) {}

var (
	_ channel.Station         = (*Aloha)(nil)
	_ channel.ReusableStation = (*Aloha)(nil)
)

// GenieAloha is slotted ALOHA where every station magically knows the exact
// current backlog k and sends with probability 1/k in every slot. It is an
// oracle — no distributed protocol can realize it — and serves as the
// throughput ceiling (≈ 1/e) against which realizable protocols are judged.
//
// Because the oracle's rate changes whenever any packet departs, stations
// must re-decide every slot rather than pre-commit to a geometric gap; the
// engine therefore charges them one access per active slot. Their energy
// numbers are meaningless (the oracle is free), and experiments report
// GenieAloha for throughput only.
type GenieAloha struct {
	shared *genieState
}

type genieState struct {
	backlog int64
}

// NewGenieAlohaFactory returns a factory whose stations share one backlog
// oracle. The factory is single-run: do not reuse it across engines.
func NewGenieAlohaFactory() channel.StationFactory {
	state := &genieState{}
	return func(_ int64, _ *prng.Source) channel.Station {
		state.backlog++
		return &GenieAloha{shared: state}
	}
}

// Reset implements channel.ReusableStation, mirroring the factory's only
// side effect: a new packet joins the shared oracle's backlog count.
func (g *GenieAloha) Reset(int64, *prng.Source) { g.shared.backlog++ }

// ScheduleNext implements channel.Station: access every slot, send with
// probability 1/backlog.
func (g *GenieAloha) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	k := g.shared.backlog
	if k < 1 {
		k = 1
	}
	return from, rng.Bernoulli(1 / float64(k))
}

// Observe implements channel.Station: a departing station updates the oracle.
func (g *GenieAloha) Observe(obs channel.Observation) {
	if obs.Succeeded {
		g.shared.backlog--
	}
}

var (
	_ channel.Station         = (*GenieAloha)(nil)
	_ channel.ReusableStation = (*GenieAloha)(nil)
)

// MWU is a full-sensing multiplicative-weights protocol in the style of
// Chang, Jin, and Pettie (SOSA 2019): it listens in every slot and updates
// its sending probability multiplicatively — up on silence, down on noise,
// unchanged on success. It achieves constant throughput with a short
// feedback loop; its listening cost is one access per active slot, which is
// exactly what LOW-SENSING BACKOFF eliminates.
type MWU struct {
	p     float64
	pInit float64
	pMax  float64
	step  float64
}

// MWUConfig parameterizes the MWU baseline.
type MWUConfig struct {
	// PInit is the initial sending probability.
	PInit float64
	// PMax caps the sending probability (typically 1/2).
	PMax float64
	// Step is the multiplicative update factor (> 1).
	Step float64
}

// DefaultMWUConfig returns the configuration used by the experiments.
func DefaultMWUConfig() MWUConfig {
	return MWUConfig{PInit: 0.25, PMax: 0.5, Step: 1.25}
}

// Validate checks the MWU parameters.
func (c MWUConfig) Validate() error {
	if !(c.PInit > 0 && c.PInit <= 1) {
		return fmt.Errorf("protocols: MWU PInit must be in (0,1], got %v", c.PInit)
	}
	if !(c.PMax > 0 && c.PMax <= 1) || c.PMax < c.PInit {
		return fmt.Errorf("protocols: MWU PMax must be in [PInit,1], got %v", c.PMax)
	}
	if !(c.Step > 1) {
		return fmt.Errorf("protocols: MWU Step must be > 1, got %v", c.Step)
	}
	return nil
}

// NewMWUFactory returns a factory for full-sensing MWU stations.
func NewMWUFactory(cfg MWUConfig) (channel.StationFactory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return func(_ int64, _ *prng.Source) channel.Station {
		return &MWU{p: cfg.PInit, pInit: cfg.PInit, pMax: cfg.PMax, step: cfg.Step}
	}, nil
}

// Reset implements channel.ReusableStation: back to the initial rate.
func (m *MWU) Reset(_ int64, _ *prng.Source) { m.p = m.pInit }

// Window reports 1/p so MWU can participate in window-based recorders.
func (m *MWU) Window() float64 { return 1 / m.p }

// ScheduleNext implements channel.Station: MWU accesses (listens in) every
// slot.
func (m *MWU) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	return from, rng.Bernoulli(m.p)
}

// Observe implements channel.Station.
func (m *MWU) Observe(obs channel.Observation) {
	switch obs.Outcome {
	case channel.OutcomeEmpty:
		m.p *= m.step
		if m.p > m.pMax {
			m.p = m.pMax
		}
	case channel.OutcomeNoisy:
		m.p /= m.step
	case channel.OutcomeSuccess:
		// Unchanged.
	}
}

var (
	_ channel.Station         = (*MWU)(nil)
	_ channel.Windowed        = (*MWU)(nil)
	_ channel.ReusableStation = (*MWU)(nil)
)

// Fixed sends with a constant probability p each slot and also listens with
// constant probability q (possibly 0). It is the no-feedback ablation
// control: identical energy profile shape to ALOHA but with configurable
// listening.
type Fixed struct {
	pSend   float64
	pListen float64
}

// NewFixedFactory returns stations that send with probability pSend and
// additionally listen with probability pListen (both per slot). pSend must
// be in (0,1]; pListen in [0,1].
func NewFixedFactory(pSend, pListen float64) (channel.StationFactory, error) {
	if !(pSend > 0 && pSend <= 1) {
		return nil, fmt.Errorf("protocols: Fixed pSend must be in (0,1], got %v", pSend)
	}
	if !(pListen >= 0 && pListen <= 1) {
		return nil, fmt.Errorf("protocols: Fixed pListen must be in [0,1], got %v", pListen)
	}
	return func(_ int64, _ *prng.Source) channel.Station {
		return &Fixed{pSend: pSend, pListen: pListen}
	}, nil
}

// Reset implements channel.ReusableStation: Fixed is stateless.
func (f *Fixed) Reset(int64, *prng.Source) {}

// ScheduleNext implements channel.Station. The access probability is
// pSend + pListen - pSend·pListen (send and listen decisions independent);
// conditioned on accessing, the send flag is set with the conditional
// probability of a send given access.
func (f *Fixed) ScheduleNext(from int64, rng *prng.Source) (int64, bool) {
	pAccess := f.pSend + f.pListen - f.pSend*f.pListen
	gap := dist.Geometric(rng, pAccess)
	send := rng.Bernoulli(f.pSend / pAccess)
	return from + gap - 1, send
}

// Observe implements channel.Station (no adaptation).
func (f *Fixed) Observe(channel.Observation) {}

var (
	_ channel.Station         = (*Fixed)(nil)
	_ channel.ReusableStation = (*Fixed)(nil)
)
