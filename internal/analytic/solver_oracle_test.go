package analytic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/paper"
)

// seriesOracle is the series solver as it stood before rows took their
// live edges from one contiguous list, pruned them against output-reach
// masks and shared perm^k across a call: each row keeps its live edge
// ids and their powers side by side, multiplies its own powers after
// every term and prunes with reachesAnyOracle over full reachability rows.
// The solver must return its rows bit for bit.
func seriesOracle(c *context, src int32, dst []int32, par Params) ([]float64, float64) {
	n := c.top.n

	var fbuf [3 * 128]float64
	f := scratch(fbuf[:], 3*n)
	maxw, logsum, s := f[:n], f[n:2*n], f[2*n:]
	var pbuf [128]uint8
	paths := scratch(pbuf[:], n)

	// Max-product path weight and path count (saturating at 2) per
	// destination, in one sweep.
	maxw[src] = 1
	paths[src] = 1
	for i, fr := range c.actFrom {
		if paths[fr] == 0 {
			continue // not reachable from src
		}
		to := c.actTo[i]
		if cand := maxw[fr] * c.actPerm[i]; cand > maxw[to] {
			maxw[to] = cand
		}
		paths[to] = min(2, paths[to]+paths[fr])
	}

	// Destinations the series must resolve: in scope and reached over
	// two or more paths of weight strictly between 0 and 1.
	var wbuf [4]uint64
	pendingSet := scratch(wbuf[:], c.words)
	var dbuf [128]int32
	pending := dbuf[:0]
	for _, t := range dst {
		if m := maxw[t]; t != src && m > 0 && m < 1 && paths[t] >= 2 {
			pending = append(pending, t)
			pendingSet[t>>6] |= 1 << (uint(t) & 63)
		}
	}

	// Live edges: reachable from src and leading to a pending
	// destination, with their perm^k.
	var lbuf [256]int32
	var kbuf [256]float64
	live, pow := lbuf[:0], kbuf[:0]
	for i, fr := range c.actFrom {
		if paths[fr] != 0 && reachesAnyOracle(c, c.actTo[i], pendingSet) {
			live = append(live, int32(i))
			pow = append(pow, c.actPerm[i])
		}
	}

	residual := 0.0
	for k := 1; len(pending) > 0; k++ {
		clear(s)
		s[src] = 1
		for j, i := range live {
			if v := s[c.actFrom[i]]; v != 0 {
				s[c.actTo[i]] += v * pow[j]
			}
		}
		tail := 0.0
		kept := pending[:0]
		for _, t := range pending {
			logsum[t] += s[t] / float64(k)
			m := maxw[t]
			if tb := s[t] * m / (float64(k+1) * (1 - m)); tb > par.Tol {
				kept = append(kept, t)
				tail = max(tail, tb)
			} else {
				pendingSet[t>>6] &^= 1 << (uint(t) & 63)
			}
		}
		shrunk := len(kept) < len(pending)
		pending = kept
		if len(pending) == 0 {
			break
		}
		if k >= par.MaxTerms {
			residual = tail
			break
		}
		if shrunk {
			w := 0
			for j, i := range live {
				if reachesAnyOracle(c, c.actTo[i], pendingSet) {
					live[w], pow[w] = i, pow[j]
					w++
				}
			}
			live, pow = live[:w], pow[:w]
		}
		for j, i := range live {
			pow[j] *= c.actPerm[i]
		}
	}

	impact := make([]float64, len(dst))
	for i, t := range dst {
		switch m := maxw[t]; {
		case t == src:
			impact[i] = 1 // a signal's impact on itself is 1
		case m >= 1:
			impact[i] = 1 // a certain path: Eq. 2's product has a zero factor
		case m == 0:
			impact[i] = 0 // unreachable over positive-permeability edges
		case paths[t] == 1:
			impact[i] = 1 - (1 - m) // the tree's fold over its one path
		default:
			impact[i] = min(1, max(0, -math.Expm1(-logsum[t])))
		}
	}
	return impact, residual
}

// reachesAnyOracle reports whether v reaches a signal of the bitset set
// (the pre-layout shape.reachesAny).
func reachesAnyOracle(c *context, v int32, set []uint64) bool {
	row := c.reach[int(v)*c.words : (int(v)+1)*c.words]
	for w, x := range set {
		if row[w]&x != 0 {
			return true
		}
	}
	return false
}

// oracleInputs are the matrices the oracle comparison runs on: the
// paper's, jittered grids of three sizes, random layered DAGs with
// exact zeros and ones, and a near-1 grid whose rows run past the
// shared powers table.
func oracleInputs() map[string]*core.Permeability {
	in := map[string]*core.Permeability{"table1": paper.Table1()}
	for i, g := range [][2]int{{8, 6}, {12, 8}, {16, 10}} {
		_, p := Grid(g[0], g[1])
		rng := rand.New(rand.NewSource(int64(i) + 1))
		for _, e := range p.System().Edges() {
			if err := p.SetEdge(e, p.Get(e)*(0.98+0.02*rng.Float64())); err != nil {
				panic(err)
			}
		}
		in[p.System().Name()] = p
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, p := layeredDAG(rng.Intn, rng.Float64)
		in[fmt.Sprintf("%s/seed%d", p.System().Name(), seed)] = p
	}
	sys, p := Grid(5, 3)
	for _, e := range sys.Edges() {
		if err := p.SetEdge(e, 0.999); err != nil {
			panic(err)
		}
	}
	in["near-1"] = p
	return in
}

// TestSeriesMatchesOracle: every series row, in both scopes, is bit-equal
// to the pre-layout solver's, with the rows of a scope sharing one
// powers table in source order as Profile shares it, under the default
// bounds and with the series starved of terms.
func TestSeriesMatchesOracle(t *testing.T) {
	for _, par := range []Params{DefaultParams(), Params{MaxTerms: 3}.withDefaults()} {
		seriesMatchesOracle(t, par)
	}
}

func seriesMatchesOracle(t *testing.T, par Params) {
	t.Helper()
	for name, p := range oracleInputs() {
		_, ctx, err := New().contextFor(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, outputs := range []bool{true, false} {
			dst := ctx.top.all
			if outputs {
				dst = ctx.top.outIdx
			}
			pw := newPowers(ctx)
			for src := int32(0); src < int32(ctx.top.n); src++ {
				if !ctx.acyclicFrom(src) {
					continue
				}
				got, gotRes := ctx.solveRow(src, outputs, pw, par)
				want, wantRes := seriesOracle(ctx, src, dst, par)
				if math.Float64bits(gotRes) != math.Float64bits(wantRes) {
					t.Errorf("%s src %d outputs=%v: residual %v, oracle %v", name, src, outputs, gotRes, wantRes)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Errorf("%s src %d outputs=%v dst %d: %v, oracle %v", name, src, outputs, dst[i], got[i], want[i])
					}
				}
			}
		}
	}
}
