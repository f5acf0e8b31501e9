// Package rng provides deterministic, splittable random-number streams for
// reproducible simulations.
//
// Every stochastic component of the SurfNet reproduction (error samplers,
// channel processes, topology generation, experiment trials) draws from an
// explicit *Source rather than from global state, so that a run is fully
// determined by its root seed. Sub-streams derived via Split are independent
// for practical purposes and stable across runs: Split(label) always yields
// the same stream for the same parent seed and label.
package rng

import (
	"hash/fnv"
	"math/rand/v2"
)

// Source is a deterministic random stream. It wraps the stdlib PCG generator
// and adds labeled splitting. A Source is not safe for concurrent use; split
// one child per goroutine instead.
//
// Float64, Uint64, Bool and Range draw from the PCG directly, with the
// arithmetic of the rand.Rand built on it, so they skip the Rand's interface
// call and draw exactly the Rand's stream; IntN, Perm and Shuffle go through
// the Rand. Both fields are pointers, so a copied Source shares its state.
type Source struct {
	seed uint64
	pcg  *rand.PCG
	rand *rand.Rand // wraps pcg
}

// New returns a Source rooted at seed.
func New(seed uint64) *Source {
	pcg := rand.NewPCG(seed, mix(seed))
	return &Source{seed: seed, pcg: pcg, rand: rand.New(pcg)}
}

// Split derives an independent child stream identified by label. Children
// with distinct labels (or distinct parent seeds) are decorrelated; calling
// Split never perturbs the parent stream.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return New(mix(s.seed ^ h.Sum64()))
}

// SplitN derives the n-th child of a labeled family, e.g. one stream per
// trial index. The index is hashed together with the label rather than
// xor-folded afterwards: the previous seed ^ hash ^ (n+1)*c construction was
// affine in (seed, label-hash, n), so two different (label, n) pairs — or the
// same pair under two related parent seeds — could collide or correlate
// exactly whenever their xor-differences cancelled. Feeding n's bytes through
// the FNV permutation destroys that algebraic structure.
func (s *Source) SplitN(label string, n int) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	var idx [8]byte
	u := uint64(n)
	for i := range idx {
		idx[i] = byte(u >> (8 * i))
	}
	_, _ = h.Write(idx[:])
	return New(mix(s.seed ^ h.Sum64()))
}

// Seed reports the seed this Source was rooted at.
func (s *Source) Seed() uint64 { return s.seed }

// Float64 returns a uniform value in [0, 1): rand.Rand.Float64's 53 low bits
// of one draw.
func (s *Source) Float64() float64 { return float64(s.pcg.Uint64()<<11>>11) / (1 << 53) }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) IntN(n int) int { return s.rand.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.pcg.Uint64() }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Range returns a uniform value in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rand.Perm(n) }

// Shuffle randomizes the order of n elements using the provided swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rand.Shuffle(n, swap) }

// mix is the SplitMix64 finalizer, used to decorrelate seeds derived from
// nearby integers.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
