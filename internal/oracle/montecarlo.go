// Package oracle holds the reference computations that several
// packages' tests compare the framework against: a Monte Carlo
// estimator of error propagation over the permeability graph and a
// small cyclic system for the fixpoint solver. No command or example
// imports it (TestNoBinaryImportsOracle), and it imports only core,
// model and the standard library, so in-package tests of any other
// package (internal/analytic among them) can use it without a cycle.
package oracle

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/model"
)

// mcBlock is the number of samples drawn per RNG stream. Sampling is
// split into fixed-size blocks, each seeded from (seed, block index),
// so the estimate depends only on (seed, samples) — never on how many
// workers drained the blocks or in what order.
const mcBlock = 4096

// MonteCarloImpact estimates Pr{error in to | error in from} under the
// edge-independence reading of the permeability matrix: in each sample,
// every module input/output pair independently passes errors with its
// permeability, and an error placed on from propagates over the
// resulting subgraph (to a fixpoint, so cycles are handled).
//
// This is the quantity Eq. 2 would equal "if one could assume
// independence all over" (paper Section 8) — except that Eq. 2
// additionally assumes the propagation paths are independent, which
// fails when paths share edges. Since path events are positively
// associated (Harris/FKG), the analytic impact of Eq. 2 can only
// overestimate this simulation; the gap measures how much the shared
// structure matters (ablation A4 in EXPERIMENTS.md).
//
// Samples are drawn in seed-indexed blocks spread across GOMAXPROCS
// workers; the result is identical for any worker count. Use
// MonteCarloImpactWorkers to pick the worker count explicitly.
func MonteCarloImpact(p *core.Permeability, from, to model.SignalID, samples int, seed int64) (float64, error) {
	return MonteCarloImpactWorkers(p, from, to, samples, seed, runtime.GOMAXPROCS(0))
}

// MonteCarloImpactWorkers is MonteCarloImpact with an explicit worker
// count (1 runs fully serial). The estimate is worker-count-invariant.
func MonteCarloImpactWorkers(p *core.Permeability, from, to model.SignalID, samples int, seed int64, workers int) (float64, error) {
	sys := p.System()
	fromIdx, ok := sys.SignalIndex(from)
	if !ok {
		return 0, fmt.Errorf("oracle: unknown signal %q", from)
	}
	toIdx, ok := sys.SignalIndex(to)
	if !ok {
		return 0, fmt.Errorf("oracle: unknown signal %q", to)
	}
	if samples < 1 {
		return 0, fmt.Errorf("oracle: samples %d must be >= 1", samples)
	}
	if workers < 1 {
		return 0, fmt.Errorf("oracle: workers %d must be >= 1", workers)
	}
	if from == to {
		return 1, nil
	}

	g := compileMC(p)
	blocks := (samples + mcBlock - 1) / mcBlock
	if workers > blocks {
		workers = blocks
	}

	var next atomic.Int64
	var hits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newMCState(g)
			local := 0
			for {
				b := int(next.Add(1)) - 1
				if b >= blocks {
					break
				}
				n := mcBlock
				if first := b * mcBlock; samples-first < n {
					n = samples - first
				}
				local += st.runBlock(g, mcSeed(seed, b), n, int32(fromIdx), int32(toIdx))
			}
			hits.Add(int64(local))
		}()
	}
	wg.Wait()
	return float64(hits.Load()) / float64(samples), nil
}

// mcGraph is the dense propagation graph for sampling: only edges that
// can ever pass an error (permeability > 0, not a self-loop) are kept,
// grouped by source signal for worklist propagation.
type mcGraph struct {
	n     int       // signals in the system
	perm  []float64 // per active edge, in system edge order
	eTo   []int32   // destination signal per active edge
	start []int32   // active-edge range per signal: edges of s are [start[s], start[s+1])
}

func compileMC(p *core.Permeability) *mcGraph {
	sys := p.System()
	values := p.Values()
	n := sys.NumSignals()
	g := &mcGraph{n: n, start: make([]int32, n+1)}
	type act struct {
		from, to int32
		perm     float64
	}
	var active []act
	for i, e := range sys.Edges() {
		w := values[i]
		if w <= 0 || e.From == e.To {
			continue // can never pass, or a no-op on an already-erroneous signal
		}
		fi, _ := sys.SignalIndex(e.From)
		ti, _ := sys.SignalIndex(e.To)
		active = append(active, act{int32(fi), int32(ti), w})
	}
	for _, a := range active {
		g.start[a.from+1]++
	}
	for i := 0; i < n; i++ {
		g.start[i+1] += g.start[i]
	}
	g.perm = make([]float64, len(active))
	g.eTo = make([]int32, len(active))
	fill := append([]int32(nil), g.start[:n]...)
	for _, a := range active {
		g.perm[fill[a.from]] = a.perm
		g.eTo[fill[a.from]] = a.to
		fill[a.from]++
	}
	return g
}

// mcState is per-worker scratch, allocated once and reused across every
// sample the worker draws.
type mcState struct {
	passed []bool  // per active edge, this sample's pass draw
	stamp  []int32 // per signal: epoch at which it became erroneous
	queue  []int32 // BFS worklist
	epoch  int32
}

func newMCState(g *mcGraph) *mcState {
	return &mcState{
		passed: make([]bool, len(g.perm)),
		stamp:  make([]int32, g.n),
		queue:  make([]int32, 0, g.n),
	}
}

func (st *mcState) runBlock(g *mcGraph, seed int64, samples int, from, to int32) int {
	rng := rand.New(rand.NewSource(seed))
	hits := 0
	for s := 0; s < samples; s++ {
		for i, w := range g.perm {
			st.passed[i] = rng.Float64() < w
		}
		st.epoch++
		if st.epoch == 0 { // int32 wrap: reset stamps and restart epochs
			for i := range st.stamp {
				st.stamp[i] = 0
			}
			st.epoch = 1
		}
		// Breadth-first propagation: each signal enters the erroneous set
		// at most once, each active edge is examined at most once.
		st.queue = append(st.queue[:0], from)
		st.stamp[from] = st.epoch
		hit := false
		for len(st.queue) > 0 {
			v := st.queue[len(st.queue)-1]
			st.queue = st.queue[:len(st.queue)-1]
			for i := g.start[v]; i < g.start[v+1]; i++ {
				t := g.eTo[i]
				if st.passed[i] && st.stamp[t] != st.epoch {
					st.stamp[t] = st.epoch
					if t == to {
						hit = true
					}
					st.queue = append(st.queue, t)
				}
			}
		}
		if hit {
			hits++
		}
	}
	return hits
}

// mcSeed derives the RNG seed for one sample block via a splitmix64
// round, decorrelating the per-block streams.
func mcSeed(seed int64, block int) int64 {
	z := uint64(seed) + uint64(block+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
