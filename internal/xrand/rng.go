// Package xrand provides the deterministic random-number substrate for the
// plurality-consensus simulator: a fast splittable PRNG and the samplers and
// special functions the paper's model needs (exponential edge latencies,
// Poisson clocks, Gamma waiting-time bounds, Zipf initial opinions).
//
// All randomness in the repository flows through this package so that every
// simulation and experiment is reproducible from a single seed. The core
// generator is xoshiro256++ seeded through SplitMix64, following the
// reference construction by Blackman and Vigna.
package xrand

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// RNG is a deterministic xoshiro256++ pseudo-random number generator.
//
// The zero value is not valid; construct instances with New or Split. RNG is
// not safe for concurrent use: give each goroutine its own instance (see
// Split), which is also what keeps parallel experiment replication
// deterministic.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from seed. Two generators created with the
// same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator state as if it had been created by New(seed).
func (r *RNG) Reseed(seed uint64) {
	// SplitMix64 expansion of the seed into four non-degenerate words, as
	// recommended by the xoshiro authors: the i-th word is the output of a
	// SplitMix64 stream started at seed, i.e. splitmix64(seed + i·golden).
	const golden uint64 = 0x9e3779b97f4a7c15
	sm := seed
	r.s0 = splitmix64(sm)
	sm += golden
	r.s1 = splitmix64(sm)
	sm += golden
	r.s2 = splitmix64(sm)
	sm += golden
	r.s3 = splitmix64(sm)
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		// The all-zero state is the single fixed point of xoshiro; avoid it.
		r.s0 = golden
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Split derives an independent child generator from the current stream.
//
// The child is seeded from two draws of the parent, so distinct calls yield
// streams that are, for simulation purposes, independent. Splitting is the
// supported way to hand randomness to concurrent replications.
func (r *RNG) Split() *RNG {
	// Mix two parent outputs through SplitMix64-style finalizers so the
	// child state is decorrelated from raw parent outputs.
	a, b := r.Uint64(), r.Uint64()
	return New(a ^ bits.RotateLeft64(b, 32))
}

// SplitNamed derives a child generator whose stream depends on both the
// parent state and the given label. It allows components ("clock latencies",
// "initial opinions", ...) to own decoupled substreams that do not shift when
// an unrelated component draws more or fewer samples.
func (r *RNG) SplitNamed(label string) *RNG {
	h := fnv64(label)
	a := r.Uint64()
	c := &RNG{}
	c.Reseed(a ^ h)
	return c
}

// fnv64 is the FNV-1a hash of s, used to fold substream labels into seeds.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// State returns the four xoshiro256++ state words. Together with SetState
// it makes a generator's position in its stream checkpointable: a restored
// generator continues the exact sequence the captured one would have
// produced.
func (r *RNG) State() [4]uint64 {
	return [4]uint64{r.s0, r.s1, r.s2, r.s3}
}

// SetState restores a generator to the given state words, as previously
// returned by State. The all-zero state is the fixed point of xoshiro and
// therefore rejected.
func (r *RNG) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errors.New("xrand: SetState with all-zero state")
	}
	r.s0, r.s1, r.s2, r.s3 = s[0], s[1], s[2], s[3]
	return nil
}

// Perturb folds a non-zero divergence label into the generator state: the
// perturbed generator is a deterministic function of (state, label) but its
// stream is decorrelated from the unperturbed one. Restored checkpoints use
// it to branch independent futures off a shared prefix — same label, same
// future; label 0 is the identity (the bit-exact continuation).
func (r *RNG) Perturb(label uint64) {
	if label == 0 {
		return
	}
	seed := r.s0 ^ bits.RotateLeft64(r.s1, 17) ^ bits.RotateLeft64(r.s2, 31) ^
		bits.RotateLeft64(r.s3, 47)
	r.Reseed(seed ^ splitmix64(label))
}

// splitmix64 is one SplitMix64 step — advance by the golden-ratio
// increment, then finalize. Reseed uses it to expand seeds and Perturb to
// spread labels (often small integers) over the full 64-bit space.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in the open interval (0, 1); it is
// the right input for -log(u) style transforms that must not see zero.
func (r *RNG) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand, because a non-positive support is always a programming error.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("xrand: Intn with non-positive n=%d", n))
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method (unbiased). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n=0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the Fisher-Yates
// shuffle. swap exchanges the elements with indexes i and j.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("xrand: Shuffle with negative n")
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed sample with rate lambda
// (mean 1/lambda). It panics if lambda <= 0.
// It draws by the ziggurat of Marsaglia and Tsang (2000): one Uint64 picks
// a layer and a position in it, and ~98.9% of draws return at once with no
// logarithm. The base layer's tail takes an open uniform: zero gives +Inf.
func (r *RNG) Exp(lambda float64) float64 {
	if lambda <= 0 || math.IsNaN(lambda) {
		panic(fmt.Sprintf("xrand: Exp with non-positive rate %v", lambda))
	}
	for {
		u := r.Uint64()
		j := uint32(u)
		i := uint8(u >> 32)
		x := float64(j) * zigW[i]
		if j < zigK[i] {
			return x / lambda
		}
		if i == 0 {
			return (zigR - math.Log(r.Float64Open())) / lambda
		}
		if zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-x) {
			return x / lambda
		}
	}
}

// zigR is where the exponential ziggurat's tail begins.
const zigR = 7.697117470131487

// The ziggurat tables for Exp: layer i's x-scale zigW, its acceptance
// threshold zigK on the 32-bit position, and e^{-x} at its edge, zigF.
var zigK, zigW, zigF = expZiggurat()

// expZiggurat builds the tables from the layer recurrence
// x_{i-1} = -ln(v/x_i + e^{-x_i}), starting at the tail x_255 = zigR, where
// v is the area of each of the 256 layers.
func expZiggurat() (k [256]uint32, w, f [256]float64) {
	const m, v = 1 << 32, 3.949659822581572e-3
	x := zigR
	q := v / math.Exp(-x)
	k[0] = uint32(x / q * m)
	w[0], w[255] = q/m, x/m
	f[0], f[255] = 1, math.Exp(-x)
	for i := 254; i >= 1; i-- {
		prev := x
		x = -math.Log(v/x + math.Exp(-x))
		k[i+1] = uint32(x / prev * m)
		w[i] = x / m
		f[i] = math.Exp(-x)
	}
	return k, w, f
}

// Norm returns a standard normal sample via the polar (Marsaglia) method.
func (r *RNG) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
