package physics

import (
	"math/rand"
	"reflect"
)

// Noise is a seeded math/rand generator whose position in its sequence
// can be saved and restored in O(state): Clone and CopyFrom copy the
// generator's internal state by value instead of replaying its draws
// from the seed. The arrestment and tank plants draw their sensor noise
// from it, so rig checkpoints can capture the noise position.
//
// Only the sequence methods are meant to be used (Intn, Float64 and
// the like); Read keeps a byte buffer outside the copied state.
type Noise struct {
	*rand.Rand
	src rand.Source
}

// NewNoise returns a generator seeded like rand.New(rand.NewSource(seed)),
// yielding the identical sequence.
func NewNoise(seed int64) Noise {
	src := rand.NewSource(seed)
	return Noise{Rand: rand.New(src), src: src}
}

// Clone returns an independent generator at the same position.
func (n Noise) Clone() Noise {
	src := reflect.New(reflect.TypeOf(n.src).Elem())
	src.Elem().Set(reflect.ValueOf(n.src).Elem())
	s := src.Interface().(rand.Source)
	return Noise{Rand: rand.New(s), src: s}
}

// CopyFrom moves n to from's position without allocating. Both must be
// NewNoise generators (or clones of one).
func (n Noise) CopyFrom(from Noise) {
	reflect.ValueOf(n.src).Elem().Set(reflect.ValueOf(from.src).Elem())
}
