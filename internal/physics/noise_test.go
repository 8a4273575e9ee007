package physics

import (
	"math/rand"
	"sync"
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

// noiseStep is one plant step's draws, as a comparable value.
type noiseStep func(n Noise) [2]float64

// The plants' draw patterns: the arrestment draws one Intn per step,
// the tank one Float64 per millisecond plus one Intn.
var noiseSteps = map[string]noiseStep{
	"arrestment": func(n Noise) [2]float64 { return [2]float64{float64(n.Intn(3))} },
	"tank":       func(n Noise) [2]float64 { f := n.Float64(); return [2]float64{f, float64(n.Intn(3))} },
}

// Seeking to a mark taken at a random position reproduces the
// uninterrupted sequence from there, on the marked generator and on
// others. Marks are taken along one run, as a golden run takes
// them, so most lie some draws past a shared keyframe.
func TestNoiseSeekContinuesSequence(t *testing.T) {
	const steps, tail = 6000, 100
	for name, step := range noiseSteps {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			marked := make(map[int]bool)
			for len(marked) < 40 {
				marked[rng.Intn(steps-tail)] = true
			}
			n := NewNoise(7)
			marks := make(map[int]Mark)
			want := make([][2]float64, steps)
			for i := range want {
				if marked[i] {
					marks[i] = n.Mark()
				}
				want[i] = step(n)
			}
			replayed := 0
			for at, m := range marks {
				if m.since >= keyframeDraws {
					t.Fatalf("mark %d draws past its keyframe, want < %d", m.since, keyframeDraws)
				}
				if m.since > 0 {
					replayed++
				}
				// other has drawn; unseeded has not, and must not seed
				// over the sought state on its first draw.
				other, unseeded := NewNoise(99), NewNoise(98)
				other.Int63()
				for _, g := range []Noise{n, other, unseeded} {
					g.Seek(m)
					for i := at; i < at+tail; i++ {
						if got := step(g); got != want[i] {
							t.Fatalf("seek to step %d: step %d = %v, want %v", at, i, got, want[i])
						}
					}
				}
			}
			if replayed < len(marks)/2 {
				t.Fatalf("only %d of %d marks lie past their keyframe", replayed, len(marks))
			}
		})
	}
}

// Marks taken at one position share their keyframe; a mark taken after
// a seek extends the sequence it sought.
func TestNoiseMarkAfterSeek(t *testing.T) {
	n := NewNoise(5)
	for i := 0; i < 3000; i++ {
		n.Int63()
	}
	m := n.Mark()
	if m2 := n.Mark(); m2 != m {
		t.Fatalf("second mark at one position = %+v, want %+v", m2, m)
	}
	want := make([]int64, 2000)
	for i := range want {
		want[i] = n.Int63()
	}
	c := NewNoise(6)
	c.Seek(m)
	for i := 0; i < 1500; i++ {
		c.Int63()
	}
	m3 := c.Mark()
	d := NewNoise(8)
	d.Seek(m3)
	for i := 1500; i < len(want); i++ {
		if got := d.Int63(); got != want[i] {
			t.Fatalf("draw %d after re-marking = %d, want %d", i, got, want[i])
		}
	}
}

// A reset generator is seeded lazily and replays exactly what a new one
// of the same seed does, including when marked before its first draw.
func TestNoiseLazyResetEqualsNew(t *testing.T) {
	n := NewNoise(1)
	for i := 0; i < 500; i++ {
		n.Float64()
	}
	n.Seed(11)
	if n.src.seeded {
		t.Fatal("Seed seeded the generator eagerly")
	}
	m := n.Mark()
	fresh, ref := NewNoise(11), rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		a, b, c := n.Int63(), fresh.Int63(), ref.Int63()
		if a != c || b != c {
			t.Fatalf("draw %d: reset %d, new %d, math/rand %d", i, a, b, c)
		}
	}
	n.Seek(m)
	if got, want := n.Int63(), rand.New(rand.NewSource(11)).Int63(); got != want {
		t.Fatalf("seek to the pre-draw mark: first draw %d, want %d", got, want)
	}

	// The same through the plant: Reset is New.
	p := DefaultParams(12000, 60, 4)
	a := New(DefaultParams(14000, 50, 9))
	a.StepMs(300)
	a.Reset(p)
	b := New(p)
	for i := 0; i < 300; i++ {
		a.StepMs(1)
		b.StepMs(1)
		if a.ADC() != b.ADC() {
			t.Fatalf("step %d: reset plant ADC %d, new plant %d", i, a.ADC(), b.ADC())
		}
	}
}

// Restoring a noise position replays at most keyframeDraws-1 draws and
// does not allocate.
func TestNoiseSeekDoesNotAllocate(t *testing.T) {
	m, n := worstMark(), NewNoise(1)
	if m.since != keyframeDraws-1 {
		t.Fatalf("mark %d draws past its keyframe, want %d", m.since, keyframeDraws-1)
	}
	if allocs := testing.AllocsPerRun(100, func() { n.Seek(m) }); allocs != 0 {
		t.Errorf("Seek allocates %v times", allocs)
	}
}

// Any number of generators may seek from one shared mark at once: the
// keyframe is only read.
func TestNoiseConcurrentSeek(t *testing.T) {
	src := NewNoise(13)
	src.Mark()
	for i := 0; i < 700; i++ {
		src.Int63()
	}
	m := src.Mark()
	want := make([]int64, 300)
	for i := range want {
		want[i] = src.Int63()
	}
	var wg sync.WaitGroup
	errs := make(chan int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := NewNoise(int64(g))
			for rep := 0; rep < 20; rep++ {
				n.Seek(m)
				for i, w := range want {
					if n.Int63() != w {
						errs <- i
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for i := range errs {
		t.Errorf("a concurrent seek diverged at draw %d", i)
	}
}

// worstMark returns a mark the most draws past its keyframe.
func worstMark() Mark {
	src := NewNoise(2)
	src.Mark()
	for i := 0; i < keyframeDraws-1; i++ {
		src.Int63()
	}
	return src.Mark()
}

// BenchmarkNoiseSeek pins the worst-case cost of restoring a noise
// position (part of a golden-checkpoint restore): a keyframe copy plus
// keyframeDraws-1 replayed draws.
func BenchmarkNoiseSeek(b *testing.B) {
	m, n := worstMark(), NewNoise(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Seek(m)
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
