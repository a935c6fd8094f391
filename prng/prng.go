// Package prng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// The simulator needs reproducibility guarantees that math/rand does not
// promise across Go versions: identical seeds must yield identical event
// trajectories forever, because the experiment tables (`experiments -scale
// full` and the checked-in small-scale goldens) are regenerated from fixed
// seeds. We therefore implement SplitMix64 (for seeding and as a stateless
// per-slot PRF) and xoshiro256** (as the general stream generator), both
// with published reference outputs that are locked down by unit tests.
//
// The package is public because it is part of the extension surface: the
// channel.Station contract hands every station a *Source, and custom
// protocols registered through lowsensing.RegisterProtocol must draw all
// their randomness from it to stay deterministic per seed.
package prng

import "math"

// SplitMix64 advances the given state and returns the next 64-bit output of
// the SplitMix64 generator (Steele, Lea, Flood 2014). It is used both as a
// seeding function and as a cheap counter-based PRF.
func SplitMix64(state uint64) (next uint64, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Mix64 hashes x through the SplitMix64 finalizer. It is a bijection on
// uint64 and serves as a stateless PRF: Mix64(seed^slot) gives an
// independent-looking uniform value per (seed, slot) pair.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Source is a deterministic stream generator based on xoshiro256**
// (Blackman, Vigna 2018). The zero value is not usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed via SplitMix64, as
// recommended by the xoshiro authors. Distinct seeds give independent
// streams for all practical purposes.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// NewStream derives an independent Source for a (seed, stream) pair. It is
// used to give each simulated station and each adversary component its own
// stream so that adding a station never perturbs another station's draws.
func NewStream(seed, stream uint64) *Source {
	var src Source
	src.Reinit(seed, stream)
	return &src
}

// Reinit resets the source in place to the exact state NewStream(seed,
// stream) would construct, without allocating. It lets callers that recycle
// per-packet state (the simulation engine's slot table) reuse one embedded
// Source per table entry instead of allocating a fresh generator for every
// packet, while producing bit-identical streams.
func (s *Source) Reinit(seed, stream uint64) {
	s.Seed(Mix64(seed) ^ Mix64(stream*0x9e3779b97f4a7c15+0x632be59bd9b4e019))
}

// Seed resets the source to the deterministic state derived from seed.
func (s *Source) Seed(seed uint64) {
	state := seed
	for i := range s.s {
		state, s.s[i] = SplitMix64(state)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 bits of the stream.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1); it never returns 0, which
// makes it safe as the argument of a logarithm.
func (s *Source) Float64Open() float64 {
	for {
		f := (float64(s.Uint64()>>11) + 0.5) / (1 << 53)
		if f > 0 && f < 1 {
			return f
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand semantics; callers validate inputs at construction time.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn called with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("prng: Int63n called with n <= 0")
	}
	return int64(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	// Lemire rejection: compute the 128-bit product hi:lo = x*n and accept
	// unless lo falls in the biased low region.
	thresh := -n % n
	for {
		x := s.Uint64()
		hi, lo := mul64(x, n)
		if lo >= thresh {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return hi, lo
}

// Bernoulli returns true with probability p. Probabilities outside [0, 1]
// are clamped, so p <= 0 is always false and p >= 1 is always true.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method. It is used only by statistical tests and samplers,
// not by the core algorithm.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}
