package physics

import (
	"math/rand"
	"reflect"
)

// Noise is a seeded math/rand generator whose position in its sequence
// can be saved as a small Mark and restored with Seek. The arrestment
// and tank plants draw their sensor noise from it, so rig checkpoints
// can capture the noise position.
//
// A mark does not copy the generator state (about 4.9 KB). Noise counts
// the draws made from its math/rand source and keeps keyframes:
// immutable copies of the generator state, taken at most once every
// keyframeDraws source draws. A mark is a keyframe plus the draws made
// since it, and Seek copies the keyframe in and replays those draws.
// The counted draws are source draws, not API calls: Intn and Float64
// can reject a value and draw again.
//
// Seeding is lazy: the generator is seeded on its first draw, Mark or
// Seek, so a plant that is reset and then restored never seeds a state
// that Seek overwrites at once.
//
// Only the sequence methods are meant to be used (Intn, Float64 and
// the like); Read keeps a byte buffer outside the counted state.
type Noise struct {
	*rand.Rand
	src *source
}

// keyframeDraws bounds the draws Seek replays: Mark takes a new
// keyframe once the latest one is this many draws behind.
const keyframeDraws = 1024

// genType is the type math/rand's generator points to. Its values are
// plain data, so copying one by value copies the sequence position.
var genType = reflect.TypeOf(rand.NewSource(0)).Elem()

// KeyframeBytes returns the memory one keyframe's generator copy holds.
func KeyframeBytes() int { return int(genType.Size()) }

// source is the counting, lazily seeded rand.Source behind a Noise.
type source struct {
	gen    rand.Source64
	seed   int64
	seeded bool
	draws  int64     // source draws since seeding
	kf     *Keyframe // the latest keyframe at or before draws
}

// Keyframe is an immutable copy of a generator state, shared by every
// mark that refers to it. Any number of generators may Seek from it
// concurrently.
type Keyframe struct {
	gen   rand.Source64 // never drawn from
	draws int64
}

// Mark is a position in a Noise sequence: a keyframe and the source
// draws made since it.
type Mark struct {
	kf    *Keyframe
	since int
}

// Keyframe returns the keyframe the mark refers to.
func (m Mark) Keyframe() *Keyframe { return m.kf }

// NewNoise returns a generator seeded like rand.New(rand.NewSource(seed)),
// yielding the identical sequence.
func NewNoise(seed int64) Noise {
	src := &source{gen: reflect.New(genType).Interface().(rand.Source64), seed: seed}
	return Noise{Rand: rand.New(src), src: src}
}

// Mark returns the generator's current position.
func (n Noise) Mark() Mark {
	s := n.src
	s.ensureSeeded()
	if s.kf == nil || s.draws-s.kf.draws >= keyframeDraws {
		gen := reflect.New(genType)
		gen.Elem().Set(reflect.ValueOf(s.gen).Elem())
		s.kf = &Keyframe{gen: gen.Interface().(rand.Source64), draws: s.draws}
	}
	return Mark{kf: s.kf, since: int(s.draws - s.kf.draws)}
}

// Seek moves the generator to a mark taken from any Noise, without
// allocating: it copies the mark's keyframe in and replays at most
// keyframeDraws-1 draws.
func (n Noise) Seek(m Mark) {
	s := n.src
	reflect.ValueOf(s.gen).Elem().Set(reflect.ValueOf(m.kf.gen).Elem())
	for range m.since {
		s.gen.Int63()
	}
	s.seeded, s.draws, s.kf = true, m.kf.draws+int64(m.since), m.kf
}

// Seed restarts the sequence of the given seed; the generator is seeded
// on its next draw, Mark or Seek.
func (s *source) Seed(seed int64) {
	s.seed, s.seeded, s.draws, s.kf = seed, false, 0, nil
}

func (s *source) ensureSeeded() {
	if !s.seeded {
		s.gen.Seed(s.seed)
		s.seeded = true
	}
}

func (s *source) Int63() int64 {
	s.ensureSeeded()
	s.draws++
	return s.gen.Int63()
}

func (s *source) Uint64() uint64 {
	s.ensureSeeded()
	s.draws++
	return s.gen.Uint64()
}
