package analytic

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
)

// Params bounds the two iterative solvers. The zero value is replaced
// by DefaultParams.
type Params struct {
	// Tol is the series-truncation tolerance of the acyclic solver: an
	// absolute bound, per destination, on the impact error left by the
	// dropped tail. Each destination stops at the first term whose own
	// tail bound is at most Tol (the bound is proven in
	// docs/analytic.md).
	Tol float64
	// MaxTerms caps the number of series sweeps per source row. If some
	// destination's tail bound is still above Tol by then, the row is
	// still returned and the largest such bound is reported as the
	// residual via Diagnose.
	MaxTerms int
	// FixTol is the per-sweep delta tolerance of the cyclic fixpoint
	// solver.
	FixTol float64
	// MaxSweeps caps Gauss–Seidel sweeps per strongly connected
	// component.
	MaxSweeps int
}

// DefaultParams returns the tolerances used by Shared(). The series
// needs ~ln(S_1/(Tol·(1−m)))/ln(1/m) terms for max path weight m, so
// MaxTerms only binds when some path weight is extremely close to 1
// (m = 0.999 needs ~31k terms; m = 1 exactly short-circuits to 1).
func DefaultParams() Params {
	return Params{Tol: 1e-12, MaxTerms: 100_000, FixTol: 1e-12, MaxSweeps: 10_000}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.Tol <= 0 {
		p.Tol = d.Tol
	}
	if p.MaxTerms <= 0 {
		p.MaxTerms = d.MaxTerms
	}
	if p.FixTol <= 0 {
		p.FixTol = d.FixTol
	}
	if p.MaxSweeps <= 0 {
		p.MaxSweeps = d.MaxSweeps
	}
	return p
}

// topology is the permeability-independent compilation of a system:
// dense edge endpoints and the per-module edge ranges the content
// hashes are computed over. Built once per *model.System.
type topology struct {
	sys   *model.System
	n     int          // dense signal count
	edges []model.Edge // system edge order (module decl order, then ports)
	eFrom []int32      // dense endpoint indices per edge
	eTo   []int32
	// Per-module views, indexed by module ordinal (declaration order).
	// Module m's edges are edges[modLo[m]:modLo[m+1]].
	modLo []int32
	// readers holds n rows of modWords words: the modules with an input
	// bound to each signal.
	modWords int
	readers  []uint64
	// System outputs in declaration order, with their criticalities;
	// outOrd maps a dense signal index to its position in outIdx (-1
	// for other signals).
	outIdx  []int32
	outCrit []float64
	outOrd  []int32
	// all lists every dense signal index: the destinations of a full row.
	all []int32
}

func compileTopology(sys *model.System) *topology {
	t := &topology{sys: sys, n: sys.NumSignals(), edges: sys.Edges()}
	t.eFrom = make([]int32, len(t.edges))
	t.eTo = make([]int32, len(t.edges))
	mods := sys.Modules()
	t.modLo = make([]int32, 0, len(mods)+1)
	t.modWords = (len(mods) + 63) / 64
	t.readers = make([]uint64, t.n*t.modWords)
	for m, md := range mods {
		lo, _, _ := sys.ModuleEdges(md.ID)
		t.modLo = append(t.modLo, int32(lo))
		for _, pb := range md.Inputs {
			i, _ := sys.SignalIndex(pb.Signal)
			t.readers[i*t.modWords+m>>6] |= 1 << (uint(m) & 63)
		}
	}
	t.modLo = append(t.modLo, int32(len(t.edges)))
	for i, e := range t.edges {
		fi, _ := sys.SignalIndex(e.From)
		ti, _ := sys.SignalIndex(e.To)
		t.eFrom[i] = int32(fi)
		t.eTo[i] = int32(ti)
	}
	t.outOrd = make([]int32, t.n)
	t.all = make([]int32, t.n)
	for i := range t.outOrd {
		t.outOrd[i] = -1
		t.all[i] = int32(i)
	}
	for _, o := range sys.SystemOutputs() {
		oi, _ := sys.SignalIndex(o)
		sig, _ := sys.Signal(o)
		t.outOrd[oi] = int32(len(t.outIdx))
		t.outIdx = append(t.outIdx, int32(oi))
		t.outCrit = append(t.outCrit, sig.Criticality)
	}
	return t
}

// shape is the part of a compiled matrix that depends only on which
// edges are active (positive permeability, not a self-loop): the
// condensation, the sweep order, the reachability bitsets and each
// source's cone modules. Matrices with the same active set share one
// shape (Engine caches it per system), so a what-if edit that keeps
// every active edge active re-uses it whole.
type shape struct {
	// Active edges, grouped by the topological position of their target
	// and in system edge order within a target, so one linear pass over
	// them is a topological sweep that sums every signal's in-edges in a
	// fixed order: a row's floating-point result then depends only on its
	// cone, not on the rest of the active graph.
	act     []int32 // active edge ids
	actFrom []int32
	actTo   []int32
	// act[inLo[v]:inHi[v]] are the active in-edges of signal v.
	inLo, inHi []int32

	comps   [][]int32 // SCCs of the active subgraph, topological order
	compOf  []int32
	acyclic bool     // every SCC is a singleton
	cyclic  []uint64 // bitset (words wide) of the signals in multi-node SCCs

	words int      // bitset row width
	reach []uint64 // n rows of `words` words: signals reachable from s (incl. s)
	// outReach holds n rows of outWords words: the system outputs, by
	// declaration ordinal, that s reaches. An outputs row prunes its live
	// edges against it, one AND per edge with up to 64 outputs.
	outWords int
	outReach []uint64

	// coneMods holds n rows of top.modWords words: the modules with an
	// input that s reaches, exactly the modules whose sub-matrix can
	// influence s's row.
	coneMods []uint64
}

// context is one permeability matrix compiled against a topology: its
// shape plus the permeabilities and the content hashes that key rows.
type context struct {
	top *topology
	*shape
	perm    []float64 // per system edge
	actPerm []float64 // per active edge, in shape order
	fp      uint64    // fingerprint over all module hashes
	coneKey []uint64  // per source: hash of its cone modules' hashes

	// residual is the largest unconverged solver bound observed while
	// solving rows under this context (0 when everything converged).
	residual float64
}

const hashSeed = 0xcbf29ce484222325

// mix folds one word into a running hash: a multiply–xorshift round over
// the whole word, a bijection in v for a fixed h. The hashes are only
// in-memory cache keys.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// readMatrix copies p's permeabilities in system edge order and hashes
// each module's full sub-matrix (zero and self-loop entries included:
// any change to a module's entries must change its hash).
func (t *topology) readMatrix(p *core.Permeability) (perm []float64, modHash []uint64, fp uint64) {
	perm = p.Values()
	modHash = make([]uint64, len(t.modLo)-1)
	fp = hashSeed
	for m := range modHash {
		h := mix(hashSeed, uint64(m)+1)
		for _, v := range perm[t.modLo[m]:t.modLo[m+1]] {
			h = mix(h, math.Float64bits(v))
		}
		modHash[m] = h
		fp = mix(fp, h)
	}
	return perm, modHash, fp
}

// active reports whether edge i takes part in propagation. Dropping the
// rest preserves Eq. 2 exactly (zero-weight paths contribute a factor of
// 1; self-loops never lie on a simple path).
func (t *topology) active(perm []float64, i int) bool {
	return perm[i] > 0 && t.eFrom[i] != t.eTo[i]
}

// activeKey is the exact active-edge bitset, one bit per system edge,
// as a map key for the shape cache.
func (t *topology) activeKey(perm []float64) string {
	key := make([]byte, (len(t.edges)+7)/8)
	for i := range t.edges {
		if t.active(perm, i) {
			key[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	return string(key)
}

// compileShape builds the shape of perm's active subgraph.
func compileShape(top *topology, perm []float64) *shape {
	n := top.n
	sh := &shape{}
	outAdj := make([][]int32, n)
	inDeg := make([]int32, n)
	nact := 0
	for i := range top.edges {
		if top.active(perm, i) {
			outAdj[top.eFrom[i]] = append(outAdj[top.eFrom[i]], int32(i))
			inDeg[top.eTo[i]]++
			nact++
		}
	}

	sh.condense(top, outAdj)

	// Counting sort of the active edges by the topological position of
	// their target, stable in system edge order; inHi is the fill cursor.
	sh.inLo = make([]int32, n)
	sh.inHi = make([]int32, n)
	off := int32(0)
	for _, comp := range sh.comps {
		for _, v := range comp {
			sh.inLo[v], sh.inHi[v] = off, off
			off += inDeg[v]
		}
	}
	sh.act = make([]int32, nact)
	sh.actFrom = make([]int32, nact)
	sh.actTo = make([]int32, nact)
	for i := range top.edges {
		if top.active(perm, i) {
			to := top.eTo[i]
			at := sh.inHi[to]
			sh.act[at], sh.actFrom[at], sh.actTo[at] = int32(i), top.eFrom[i], to
			sh.inHi[to]++
		}
	}

	sh.buildReach(top, outAdj)
	sh.outWords = (len(top.outIdx) + 63) / 64
	sh.outReach = make([]uint64, n*sh.outWords)
	for v := int32(0); v < int32(n); v++ {
		row := sh.outReach[int(v)*sh.outWords : (int(v)+1)*sh.outWords]
		for o, t := range top.outIdx {
			if sh.reaches(v, t) {
				row[o>>6] |= 1 << (uint(o) & 63)
			}
		}
	}

	// A source's cone modules are the union, over the signals it
	// reaches, of the modules reading each signal.
	mw := top.modWords
	sh.coneMods = make([]uint64, n*mw)
	for s := 0; s < n; s++ {
		cone := sh.coneMods[s*mw : (s+1)*mw]
		for w, set := range sh.reach[s*sh.words : (s+1)*sh.words] {
			for ; set != 0; set &= set - 1 {
				v := w<<6 + bits.TrailingZeros64(set)
				for i, r := range top.readers[v*mw : (v+1)*mw] {
					cone[i] |= r
				}
			}
		}
	}
	return sh
}

// compileContext binds a matrix (read by readMatrix) to its shape: it
// gathers the active permeabilities in sweep order and folds each
// source's cone key over its cone modules' hashes. Rows are memoized
// under the cone key, so changing a module invalidates only the rows
// whose cone contains it.
func compileContext(top *topology, sh *shape, perm []float64, modHash []uint64, fp uint64) *context {
	c := &context{top: top, shape: sh, perm: perm, fp: fp}
	c.actPerm = make([]float64, len(sh.act))
	for i, ei := range sh.act {
		c.actPerm[i] = perm[ei]
	}
	c.coneKey = make([]uint64, top.n)
	for s := range c.coneKey {
		h := uint64(hashSeed)
		for w, set := range sh.coneMods[s*top.modWords : (s+1)*top.modWords] {
			for ; set != 0; set &= set - 1 {
				h = mix(h, modHash[w<<6+bits.TrailingZeros64(set)])
			}
		}
		c.coneKey[s] = h
	}
	return c
}

// condense runs Tarjan's algorithm over the active subgraph and stores
// the strongly connected components in topological order. The shape
// is acyclic iff every component is a singleton (self-loops are already
// dropped); the members of the other components are marked in cyclic.
func (c *shape) condense(top *topology, outAdj [][]int32) {
	n := top.n
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int32
	var next int32
	var comps [][]int32            // reverse topological order as emitted
	emitted := make([]int32, 0, n) // their members, back to back

	var strongconnect func(v int32)
	strongconnect = func(v int32) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, ei := range outAdj[v] {
			w := top.eTo[ei]
			if index[w] == unvisited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			start := len(emitted)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				emitted = append(emitted, w)
				if w == v {
					break
				}
			}
			comps = append(comps, emitted[start:])
		}
	}
	for v := int32(0); v < int32(n); v++ {
		if index[v] == unvisited {
			strongconnect(v)
		}
	}

	// Reverse into topological order and record memberships.
	c.comps = make([][]int32, len(comps))
	for i := range comps {
		c.comps[i] = comps[len(comps)-1-i]
	}
	c.compOf = make([]int32, n)
	c.acyclic = true
	c.words = (n + 63) / 64
	c.cyclic = make([]uint64, c.words)
	for ci, comp := range c.comps {
		for _, v := range comp {
			c.compOf[v] = int32(ci)
			if len(comp) > 1 {
				c.acyclic = false
				c.cyclic[v>>6] |= 1 << (uint(v) & 63)
			}
		}
	}
}

// buildReach fills the per-signal reachability bitsets (each signal
// reaches itself) by walking the condensation sinks-first.
func (c *shape) buildReach(top *topology, outAdj [][]int32) {
	n := top.n
	c.reach = make([]uint64, n*c.words)
	compRow := make([]uint64, len(c.comps)*c.words)
	for ci := len(c.comps) - 1; ci >= 0; ci-- {
		row := compRow[ci*c.words : (ci+1)*c.words]
		for _, v := range c.comps[ci] {
			row[v>>6] |= 1 << (uint(v) & 63)
			for _, ei := range outAdj[v] {
				tc := c.compOf[top.eTo[ei]]
				if tc == int32(ci) {
					continue
				}
				succ := compRow[int(tc)*c.words : (int(tc)+1)*c.words]
				for w := range row {
					row[w] |= succ[w]
				}
			}
		}
		for _, v := range c.comps[ci] {
			copy(c.reach[int(v)*c.words:(int(v)+1)*c.words], row)
		}
	}
}

func (c *shape) reaches(src, dst int32) bool {
	return c.reach[int(src)*c.words+int(dst>>6)]&(1<<(uint(dst)&63)) != 0
}

// acyclicFrom reports whether the active subgraph reachable from src
// is acyclic, i.e. whether the exact series solver applies to its row.
func (c *shape) acyclicFrom(src int32) bool { return !meets(c.reach, c.words, src, c.cyclic) }

// solveRow computes Eq. 2 impacts from one source: with outputs set,
// on the system outputs in declaration order, otherwise on every signal
// in dense order. The series stops once those destinations have
// converged and takes its perm^k from pw. The returned residual is 0
// when the solver converged within Params and otherwise bounds the
// remaining error.
func (c *context) solveRow(src int32, outputs bool, pw *powers, par Params) ([]float64, float64) {
	if c.acyclicFrom(src) {
		return c.solveRowSeries(src, outputs, pw, par)
	}
	row, residual := c.solveRowFixpoint(src, par)
	if !outputs {
		return row, residual
	}
	out := make([]float64, len(c.top.outIdx))
	for i, t := range c.top.outIdx {
		out[i] = row[t]
	}
	return out, residual
}

// scratch returns buf[:n] zeroed, or a fresh slice when buf is too
// small; with buf a local array, small rows keep their scratch off the
// heap.
func scratch[T any](buf []T, n int) []T {
	if n > len(buf) {
		return make([]T, n)
	}
	b := buf[:n]
	clear(b)
	return b
}

// maxPowerFloats bounds a powers table: past it, a row forms its
// further powers itself.
const maxPowerFloats = 1 << 15

// powers serves perm^k of every active edge, k = 1, 2, …, to the rows
// solved in one call (one Profile, or one Impacts or Impact row), so
// the rows share each product instead of each forming it again. Term k
// of edge a is term k−1 times perm(a), the left-to-right product a row
// forming its own powers computes, so the bits do not depend on who
// formed them. The table grows on demand up to maxPowerFloats and lives
// only for the call: release hands its storage to the next call, never
// to a cached context.
type powers struct {
	act  []float64 // term 1: perm of each active edge, in shape order
	more []float64 // terms 2, 3, … back to back
}

var powersPool = sync.Pool{New: func() any { return new(powers) }}

// newPowers returns an empty table over c's active edges.
func newPowers(c *context) *powers {
	pw := powersPool.Get().(*powers)
	pw.act, pw.more = c.actPerm, pw.more[:0]
	return pw
}

// release returns the table's storage for reuse; pw must not be used
// after it.
func (pw *powers) release() {
	pw.act = nil
	powersPool.Put(pw)
}

// term returns perm^k of every active edge, or false once the table
// would grow past maxPowerFloats.
func (pw *powers) term(k int) ([]float64, bool) {
	n := len(pw.act)
	if k == 1 {
		return pw.act, true
	}
	for len(pw.more) < (k-1)*n {
		if len(pw.more)+n > maxPowerFloats {
			return nil, false
		}
		prev := pw.act
		if len(pw.more) > 0 {
			prev = pw.more[len(pw.more)-n:]
		}
		for a, v := range prev {
			pw.more = append(pw.more, v*pw.act[a])
		}
	}
	return pw.more[(k-2)*n : (k-1)*n], true
}

// liveEdge is one entry of a row's live list: an active edge's
// endpoints and its position in shape order, which indexes its perm^k.
type liveEdge struct{ from, to, at int32 }

// meets reports whether signal v's row of reach (words wide) shares a
// bit with set.
func meets(reach []uint64, words int, v int32, set []uint64) bool {
	if words == 1 {
		return reach[v]&set[0] != 0
	}
	row := reach[int(v)*words : (int(v)+1)*words]
	for w, x := range set {
		if row[w]&x != 0 {
			return true
		}
	}
	return false
}

// solveRowSeries evaluates Eq. 2 exactly on an acyclic active graph
// (acyclic at least where src reaches, which is all the row reads).
//
// For a destination t, Eq. 2 is I = 1 − Π_p (1 − w_p) over the simple
// paths p from src to t. Taking logs, log Π (1 − w_p) = −Σ_{k≥1} S_k/k
// with S_k = Σ_p w_p^k, and each S_k is computable without enumerating
// paths: it is the path sum of the graph whose edge weights are
// perm^k, one linear sweep over topologically ordered edges. The tail
// dropped after term k is bounded by S_k·m/((k+1)(1−m)) where
// m = max_p w_p (itself a max-product sweep); each destination stops
// once its own bound is at most Params.Tol, and each term sweeps only
// the edges that still lead to a destination that has not. m == 1
// means some path passes errors with certainty and Eq. 2 saturates at
// exactly 1; a destination with exactly one path takes the path's
// weight through Eq. 2's own one-factor fold, bit-equal to the tree.
//
// Only the destinations in scope enter the series. A destination's S_k
// sums only edges of its own cone, in the same order whatever else is
// pending, and its stop test reads only its own S_k, so its value does
// not depend on the scope.
func (c *context) solveRowSeries(src int32, outputs bool, pw *powers, par Params) ([]float64, float64) {
	n := c.top.n
	// Bit i of a pending set stands for dst[i]; a signal's row of reach
	// marks the destinations it reaches.
	dst, reach, words := c.top.all, c.reach, c.words
	if outputs {
		dst, reach, words = c.top.outIdx, c.outReach, c.outWords
	}

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

	// Destinations the series must resolve, by position in dst: reached
	// over two or more paths of weight strictly between 0 and 1.
	var wbuf [4]uint64
	pendingSet := scratch(wbuf[:], words)
	var dbuf [128]int32
	pending := dbuf[:0]
	for i, t := range dst {
		if m := maxw[t]; t != src && m > 0 && m < 1 && paths[t] >= 2 {
			pending = append(pending, int32(i))
			pendingSet[i>>6] |= 1 << (uint(i) & 63)
		}
	}

	// Live edges: reachable from src and leading to a pending
	// destination.
	var lbuf [256]liveEdge
	live := lbuf[:0]
	if len(pending) > 0 {
		for a, fr := range c.actFrom {
			if to := c.actTo[a]; paths[fr] != 0 && meets(reach, words, to, pendingSet) {
				live = append(live, liveEdge{fr, to, int32(a)})
			}
		}
	}

	residual := 0.0
	var own []float64 // this row's perm^k once past the shared table
	for k := 1; len(pending) > 0; k++ {
		pk, ok := pw.term(k)
		if !ok {
			if own == nil {
				prev, _ := pw.term(k - 1)
				own = append([]float64(nil), prev...)
			}
			for _, l := range live {
				own[l.at] *= c.actPerm[l.at]
			}
			pk = own
		}
		clear(s)
		s[src] = 1
		for _, l := range live {
			if v := s[l.from]; v != 0 {
				s[l.to] += v * pk[l.at]
			}
		}
		tail := 0.0
		kept := pending[:0]
		for _, i := range pending {
			t := dst[i]
			logsum[t] += s[t] / float64(k)
			m := maxw[t]
			if tb := s[t] * m / (float64(k+1) * (1 - m)); tb > par.Tol {
				kept = append(kept, i)
				tail = max(tail, tb)
			} else {
				pendingSet[i>>6] &^= 1 << (uint(i) & 63)
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
			for _, l := range live {
				if meets(reach, words, l.to, pendingSet) {
					live[w] = l
					w++
				}
			}
			live = live[:w]
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

// solveRowFixpoint handles active graphs with genuine cycles: it solves
// the monotone node equations P(t) = 1 − Π_{e into t} (1 − P(from_e)·perm_e)
// componentwise in condensation order, iterating each non-trivial SCC
// with Gauss–Seidel sweeps until the largest per-sweep delta falls
// below Params.FixTol. Starting from zero, the updates are monotone
// non-decreasing and bounded by 1, so they converge to the least
// fixpoint; geometric convergence at the loop gain is shown in
// docs/analytic.md. On reconvergent or cyclic structure this
// node-marginal model can overestimate Eq. 2's path view (positively
// associated path events, Harris/FKG) — the documented validation
// tolerance against Monte Carlo covers the gap.
func (c *context) solveRowFixpoint(src int32, par Params) ([]float64, float64) {
	n := c.top.n
	p := make([]float64, n)
	p[src] = 1
	residual := 0.0
	update := func(v int32) float64 {
		prod := 1.0
		for ai := c.inLo[v]; ai < c.inHi[v]; ai++ {
			prod *= 1 - p[c.actFrom[ai]]*c.actPerm[ai]
		}
		return 1 - prod
	}
	for _, comp := range c.comps {
		if len(comp) == 1 {
			if v := comp[0]; v != src {
				p[v] = update(v)
			}
			continue
		}
		for sweep := 0; ; sweep++ {
			delta := 0.0
			for _, v := range comp {
				if v == src {
					continue
				}
				nv := update(v)
				if d := nv - p[v]; d > delta {
					delta = d
				}
				p[v] = nv
			}
			if delta <= par.FixTol {
				break
			}
			if sweep >= par.MaxSweeps {
				if delta > residual {
					residual = delta
				}
				break
			}
		}
	}
	// Mask signals the source cannot reach (their equations are exactly
	// zero anyway; this also clamps stray rounding).
	for t := int32(0); t < int32(n); t++ {
		if t != src && !c.reaches(src, t) {
			p[t] = 0
		}
	}
	return p, residual
}
