package experiment

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// runRandSeeds covers math/rand's seed normalization: zero and the
// multiples of 2³¹−1 (which it maps to 89482311), negatives, values
// beside the modulus and the int64 extremes.
var runRandSeeds = []int64{
	0, 1, 2, 42, -1, -2, -42,
	lcgMod, -lcgMod, 2 * lcgMod, -7 * lcgMod, lcgMod - 1, lcgMod + 1, -(lcgMod - 1),
	89482311, 1 << 31, 1 << 62, -1 << 62, 1<<62 + 1,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	6_364_136_223_846_793_005, -3_141_592_653_589_793,
}

func TestRunRandFastPathActive(t *testing.T) {
	if !lazyExact {
		t.Fatal("lazy source disabled: math/rand's rngCooked was not recovered or did not check out")
	}
}

// TestRunRandMatchesMathRand compares raw draws on both sides of the
// lazy source's switch to a real source.
func TestRunRandMatchesMathRand(t *testing.T) {
	for _, seed := range runRandSeeds {
		for _, n := range []int{1, 2, 3, lazyDraws - 1, lazyDraws, lazyDraws + 1, lazyDraws + 2, rngLen, 700} {
			got, want := runRand(seed), rand.New(rand.NewSource(seed))
			for k := 1; k <= n; k++ {
				var g, w uint64
				if k%2 == 0 {
					g, w = got.Uint64(), want.Uint64()
				} else {
					g, w = uint64(got.Int63()), uint64(want.Int63())
				}
				if g != w {
					t.Fatalf("seed %d: draw %d of %d = %#x, want %#x", seed, k, n, g, w)
				}
			}
		}
	}
}

// TestRunRandMixedCalls drives both generators through the Rand
// methods the campaigns use, including ones that reject and redraw,
// past the switch to a real source.
func TestRunRandMixedCalls(t *testing.T) {
	for _, seed := range runRandSeeds {
		for _, pattern := range [][]byte{{0}, {1, 2}, {3}, {0, 1, 2, 3}, {2, 2, 3, 1, 0}} {
			checkMixedDraws(t, seed, pattern, 120)
		}
	}
}

// checkMixedDraws makes rounds rounds of the calls named by ops on a
// runRand and a math/rand generator of the same seed and fails on the
// first difference.
func checkMixedDraws(t *testing.T, seed int64, ops []byte, rounds int) {
	t.Helper()
	got, want := runRand(seed), rand.New(rand.NewSource(seed))
	for r := range rounds {
		for i, op := range ops {
			n := 1 + r*7 + i
			var g, w any
			switch op % 4 {
			case 0:
				g, w = got.Intn(n), want.Intn(n)
			case 1:
				m := int64(n)<<33 + 5
				g, w = got.Int63n(m), want.Int63n(m)
			case 2:
				g, w = got.Float64(), want.Float64()
			case 3:
				a, b := make([]int, n%13+2), make([]int, n%13+2)
				for j := range a {
					a[j], b[j] = j, j
				}
				got.Shuffle(len(a), func(x, y int) { a[x], a[y] = a[y], a[x] })
				want.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("seed %d ops %v: round %d call %d: Shuffle = %v, want %v", seed, ops, r, i, a, b)
					}
				}
				continue
			}
			if g != w {
				t.Fatalf("seed %d ops %v: round %d call %d (op %d) = %v, want %v", seed, ops, r, i, op%4, g, w)
			}
		}
	}
}

func FuzzRunRandMatchesMathRand(f *testing.F) {
	for _, seed := range runRandSeeds {
		f.Add(seed, []byte{0, 1, 2, 3}, uint16(40))
	}
	f.Add(int64(lcgMod), []byte{2}, uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte, rounds uint16) {
		if len(ops) == 0 {
			ops = []byte{0}
		}
		if len(ops) > 16 {
			ops = ops[:16]
		}
		checkMixedDraws(t, seed, ops, int(rounds%400))
	})
}

// TestPermeabilityExecuteAllocs guards the per-run seeding and the
// watch lists: one permeability Execute must not allocate a seeded
// 607-word math/rand source (about 4.9 KB), and it makes at most
// maxPermRunAllocs allocations (the watch's lists are sized once, not
// grown by append).
func TestPermeabilityExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, job := benchPermRun(t)
	run := func(from, n int) {
		for i := from; i < from+n; i++ {
			job.seq = i
			if _, err := c.Execute(context.Background(), job, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	const runs = 400
	run(0, runs) // warm the rig pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(runs, runs)
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 3000 {
		t.Errorf("permeability Execute allocates %d B/run, want well under 4 KB (a seeded math/rand source alone is ~4.9 KB)", perRun)
	}
	if perRun := (after.Mallocs - before.Mallocs) / runs; perRun > maxPermRunAllocs {
		t.Errorf("permeability Execute makes %d allocations/run, want at most %d", perRun, maxPermRunAllocs)
	}
}

// maxPermRunAllocs is what one permeability Execute allocates on a
// warm rig pool.
const maxPermRunAllocs = 11
