package experiment

import (
	"math/rand"
	"reflect"
)

// runRand returns the generator of one injection run: it yields exactly
// the sequence of rand.New(rand.NewSource(seed)), but without filling
// the 607-word state that seeding a math/rand source costs (about 13 µs
// and 5 KB) when the run draws only a few values.
//
// runRand is small enough to inline, so the Rand itself can stay on the
// caller's stack, as rand.New(rand.NewSource(seed)) does.
func runRand(seed int64) *rand.Rand { return rand.New(runSource(seed)) }

// runSource is runRand's source: a lazySource, or a real math/rand
// source when the lazy one could not be set up.
func runSource(seed int64) rand.Source {
	if !lazyExact {
		return rand.NewSource(seed)
	}
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// math/rand's additive lagged Fibonacci source (rng.go): 607 words,
// the feed index starts rngTap words behind the tap.
const (
	rngLen  = 607
	rngTap  = 273
	lcgMod  = 1<<31 - 1 // seeding LCG: x ← 48271·x mod (2³¹−1)
	lcgMul  = 48271
	rngMask = 1<<63 - 1
	// lazyDraws is how many draws read only seeded words. Draw k
	// (1-based) adds vec[rngLen-rngTap-k] and vec[rngLen-k] and stores
	// the sum at the first index; the second index reaches a stored
	// sum only at k = rngTap+1.
	lazyDraws = rngTap
)

var (
	// seedMul[i] holds 48271ⁿ mod (2³¹−1) for the three LCG steps that
	// seeding word i takes: n = 21+3i, 22+3i, 23+3i (20 warm-up steps,
	// then three per word). The LCG is a pure multiplication, so step n
	// from seed x is x·seedMul mod (2³¹−1).
	seedMul [rngLen][3]uint64
	// rngCooked is math/rand's table of the same name, XORed into every
	// seeded word.
	rngCooked [rngLen]int64
	// lazyExact reports whether rngCooked was recovered and the lazy
	// source reproduces math/rand; runRand falls back to a real source
	// otherwise.
	lazyExact = initLazy()
)

// initLazy fills the power table, recovers rngCooked from a real
// source's seeded words (for seed 1 each word is its LCG bits XOR
// rngCooked), and checks the lazy source against a second seed.
func initLazy() bool {
	p := uint64(1)
	for n := 1; n <= 20+3*rngLen; n++ {
		p = p * lcgMul % lcgMod
		if n > 20 {
			seedMul[(n-21)/3][(n-21)%3] = p
		}
	}
	vec := reflect.ValueOf(rand.NewSource(1)).Elem().FieldByName("vec")
	if vec.Kind() != reflect.Array || vec.Len() != rngLen || vec.Type().Elem().Kind() != reflect.Int64 {
		return false
	}
	for i := range rngCooked {
		rngCooked[i] = vec.Index(i).Int() ^ seedBits(1, i)
	}
	ref := rand.NewSource(2).(rand.Source64)
	lazy := &lazySource{}
	lazy.Seed(2)
	for range lazyDraws {
		if lazy.Uint64() != ref.Uint64() {
			return false
		}
	}
	return true
}

// seedBits is word i of the seeded state before the rngCooked XOR:
// three consecutive LCG values packed at bit offsets 40, 20 and 0
// (bits shifted past bit 63 drop, as in math/rand).
func seedBits(x uint64, i int) int64 {
	m := &seedMul[i]
	return int64(x*m[0]%lcgMod)<<40 ^ int64(x*m[1]%lcgMod)<<20 ^ int64(x*m[2]%lcgMod)
}

// lazySource is a rand.Source64 equal to rand.NewSource(seed) that
// computes each of its first lazyDraws draws from the two seeded words
// it reads, and past them continues on a real source advanced by the
// draws made.
type lazySource struct {
	seed  int64
	x     uint64 // the LCG start math/rand derives from seed
	draws int
	gen   rand.Source64 // nil until lazyDraws draws are made
}

func (s *lazySource) Seed(seed int64) {
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = 89482311
	}
	*s = lazySource{seed: seed, x: uint64(x)}
}

func (s *lazySource) Uint64() uint64 {
	if s.gen == nil {
		if s.draws < lazyDraws {
			s.draws++
			return uint64(s.word(rngLen-rngTap-s.draws) + s.word(rngLen-s.draws))
		}
		s.gen = rand.NewSource(s.seed).(rand.Source64)
		for range s.draws {
			s.gen.Uint64()
		}
	}
	return s.gen.Uint64()
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// word is seeded state word i.
func (s *lazySource) word(i int) int64 { return seedBits(s.x, i) ^ rngCooked[i] }
