package physics

import (
	"math/rand"
	"testing"
)

// NewNoise must yield exactly the math/rand sequence of the same seed:
// plants switched to it without moving any campaign output.
func TestNoiseMatchesMathRand(t *testing.T) {
	n, ref := NewNoise(42), rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		if a, b := n.Intn(3), ref.Intn(3); a != b {
			t.Fatalf("draw %d: Noise %d, math/rand %d", i, a, b)
		}
		if a, b := n.Float64(), ref.Float64(); a != b {
			t.Fatalf("draw %d: Noise %v, math/rand %v", i, a, b)
		}
	}
}

// A cloned generator continues the original's sequence, independently
// of it; CopyFrom moves another generator to the same position.
func TestNoiseCloneContinuesSequence(t *testing.T) {
	n := NewNoise(7)
	for i := 0; i < 777; i++ {
		n.Int63()
	}
	c := n.Clone()
	other := NewNoise(99)
	other.CopyFrom(n)
	want := make([]int64, 2000)
	for i := range want {
		want[i] = n.Int63()
	}
	for i, w := range want {
		if got := c.Int63(); got != w {
			t.Fatalf("clone draw %d = %d, want %d", i, got, w)
		}
		if got := other.Int63(); got != w {
			t.Fatalf("copied draw %d = %d, want %d", i, got, w)
		}
	}
}

// Restoring a checkpointed generator is a value copy: no allocation,
// no replay of draws.
func TestNoiseCopyFromDoesNotAllocate(t *testing.T) {
	n, src := NewNoise(1), NewNoise(2).Clone()
	if allocs := testing.AllocsPerRun(100, func() { n.CopyFrom(src) }); allocs != 0 {
		t.Errorf("CopyFrom allocates %v times", allocs)
	}
}

// BenchmarkNoiseCopyFrom pins the cost of restoring a noise position
// (the bulk of a golden-checkpoint restore).
func BenchmarkNoiseCopyFrom(b *testing.B) {
	n, src := NewNoise(1), NewNoise(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.CopyFrom(src)
	}
}

// A restored plant replays the saved plant's run, and Matches follows
// the state.
func TestPlantSaveRestore(t *testing.T) {
	p := DefaultParams(12000, 65, 3)
	a := New(p)
	a.SetValveDuty(200)
	for i := 0; i < 500; i++ {
		a.StepMs(1)
	}
	snap := a.Save()
	b := New(p)
	b.Restore(snap)
	if !b.Matches(snap) {
		t.Fatal("restored plant does not match its snapshot")
	}
	for i := 0; i < 500; i++ {
		a.StepMs(1)
		b.StepMs(1)
		if a.ADC() != b.ADC() || a.PACNT() != b.PACNT() || a.Velocity() != b.Velocity() {
			t.Fatalf("step %d: restored plant diverged", i)
		}
	}
	if a.Matches(snap) {
		t.Error("plant still matches a snapshot 500 steps old")
	}
}
