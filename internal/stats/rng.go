// Package stats provides the small numeric substrate shared by every
// experiment harness in this repository: a deterministic, splittable random
// number generator, histogram types, and summary statistics (mean, geometric
// mean, percentiles).
//
// Determinism matters here: the paper's Monte Carlo experiment (Fig. 7) and
// the synthetic workload generators must be exactly reproducible from a seed
// so that the tables and figures regenerate identically across runs and
// machines. All randomness in the repository flows through stats.RNG.
package stats

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random source. It wraps the stdlib PCG
// generator and adds the derivation helpers the simulators need (splitting a
// stream per core, bounded draws, probability tests).
//
// The hot draws (Uint64, Float64, Bool, Geometric, Split) call the PCG
// directly instead of through rand.Rand's Source interface; IntN, Int64N
// and Perm use the rand.Rand, which advances the same PCG state. Every
// draw therefore equals the one rand.New(rand.NewPCG(seed1, seed2)) would
// make at the same position.
//
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	src *rand.Rand
	pcg *rand.PCG
}

// NewRNG returns a generator seeded from the two seed words. Equal seeds
// yield identical streams.
func NewRNG(seed1, seed2 uint64) *RNG {
	pcg := rand.NewPCG(seed1, seed2)
	return &RNG{src: rand.New(pcg), pcg: pcg}
}

// Clone returns an independent generator in r's exact state: the two draw
// the same values from here on, and neither's draws advance the other.
func (r *RNG) Clone() *RNG {
	pcg := *r.pcg
	return &RNG{src: rand.New(&pcg), pcg: &pcg}
}

// Split derives an independent generator from this one, identified by id.
// Each (parent seed, id) pair yields a fixed stream, so per-core or
// per-experiment sub-streams are reproducible regardless of draw ordering in
// the parent.
func (r *RNG) Split(id uint64) *RNG {
	// Mix the id through two draws so adjacent ids decorrelate.
	a := r.pcg.Uint64() ^ (id * 0x9e3779b97f4a7c15)
	b := r.pcg.Uint64() ^ (id*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb)
	return NewRNG(a, b)
}

// SplitN derives n independent generators, one per job of a parallel
// fan-out. The derivation consumes the parent serially before any job runs,
// so handing rngs[i] to worker i keeps results bit-identical regardless of
// worker count or completion order.
func (r *RNG) SplitN(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split(uint64(i))
	}
	return out
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 { return r.pcg.Uint64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Int64N returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int64N(n int64) int64 { return r.src.Int64N(n) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return unit(r.pcg.Uint64()) }

// unit maps one 64-bit draw to [0, 1) by rand.Rand.Float64's formula: the
// low 53 bits, scaled.
func unit(x uint64) float64 { return float64(x<<11>>11) / (1 << 53) }

// Bool returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Geometric returns a draw from a geometric distribution with success
// probability p, i.e. the number of failures before the first success
// (support {0, 1, 2, ...}, mean (1-p)/p). Used to model bursty gaps between
// memory instructions. p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("stats: Geometric requires p in (0,1]")
	}
	// One Bernoulli trial per draw, capped to keep pathological draws
	// bounded. A trial succeeds when unit(x) < p, i.e. m/2^53 < p for the
	// draw's low 53 bits m. Both m/2^53 and p·2^53 are exact in float64
	// and m is an integer, so m < ceil(p·2^53) is the same test.
	t := uint64(math.Ceil(p * (1 << 53)))
	n := 0
	for r.pcg.Uint64()<<11>>11 >= t {
		n++
		if n >= 1<<20 {
			break
		}
	}
	return n
}
