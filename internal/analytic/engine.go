package analytic

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
)

// Cache bounds: contexts are cheap to rebuild (one O(E+n²/64) compile),
// rows are the solver work worth keeping. Both maps are cleared
// wholesale when full — sweeps revisit keys immediately, so an LRU
// would buy nothing over this.
const (
	maxContexts = 256
	maxRows     = 1 << 16
)

// Engine memoizes solver results across permeability matrices of the
// same systems. It is safe for concurrent use; the what-if sweep runs
// one engine from many goroutines.
//
// Memoization is compositional: a row (one source; every signal, or
// only the system outputs, as destinations) is keyed by the content
// hashes of the modules in the source's downstream cone, so two
// matrices that differ only in modules outside that cone share the
// row. core.ScaleModule therefore invalidates only the rows that can
// see the scaled module.
type Engine struct {
	params Params

	mu      sync.Mutex
	systems map[*model.System]*sysCache
	hits    uint64
	misses  uint64
}

type sysCache struct {
	top    *topology
	shapes map[string]*shape // keyed by the exact active-edge bitset
	ctxs   map[uint64]*context
	rows   map[rowKey]*row
}

// row is one cached solver row: the impacts on every signal in dense
// order, or for an outputs row on the system outputs in declaration
// order — then vals is the profile's SignalProfile.Impacts, shared by
// every profile that reads the row. An outputs row also carries what a
// profile derives from it alone (the max impact and Eq. 4's
// criticality), computed once.
type row struct {
	vals        []float64
	impact      float64
	criticality float64
}

// deriveOutputs fills the profile fields of an outputs row. The max
// and the criticality fold run over the outputs in declaration order,
// as core.BuildProfile's and core.CriticalityWith's do, so a signal
// whose output impacts are all exact gets the tree's criticality bits.
func (t *topology) deriveOutputs(r *row) {
	critProd := 1.0
	for oi, imp := range r.vals {
		if imp > r.impact {
			r.impact = imp
		}
		critProd *= 1 - t.outCrit[oi]*imp
	}
	r.criticality = min(1, max(0, 1-critProd))
}

// rowKey identifies a row by its source, its cone's content, the
// solver that made it (the series when the source reaches no cycle)
// and its scope: a full row covers every signal, an outputs row only
// the system outputs, in declaration order.
type rowKey struct {
	src     int32
	cone    uint64
	acyclic bool
	outputs bool
}

// New returns an engine with DefaultParams.
func New() *Engine { return NewWithParams(Params{}) }

// NewWithParams returns an engine with explicit solver bounds.
func NewWithParams(p Params) *Engine {
	return &Engine{params: p.withDefaults(), systems: make(map[*model.System]*sysCache)}
}

var shared = New()

// Shared returns the process-wide engine, the solver cache every
// production profile (the commands, examples and target reports)
// routes through.
func Shared() *Engine { return shared }

// Stats reports row-cache hits and misses since the engine was created.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Stats returns the row-cache counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{Hits: e.hits, Misses: e.misses}
}

// contextFor compiles (or recalls) the matrix's solve context. The
// fingerprint pass reads every permeability, so a mutated-in-place
// matrix is re-compiled automatically. A context is recalled only
// when its permeabilities equal the matrix's bit for bit: a
// fingerprint collision is a miss, and the new context takes the
// fingerprint's slot. A new context re-uses the cached shape of its
// active-edge set when there is one.
func (e *Engine) contextFor(p *core.Permeability) (*sysCache, *context, error) {
	sys := p.System()
	if sys == nil {
		return nil, nil, fmt.Errorf("analytic: permeability matrix has no system")
	}
	e.mu.Lock()
	sc, ok := e.systems[sys]
	e.mu.Unlock()
	if !ok {
		top := compileTopology(sys)
		e.mu.Lock()
		if prev, raced := e.systems[sys]; raced {
			sc = prev
		} else {
			sc = &sysCache{
				top:    top,
				shapes: make(map[string]*shape),
				ctxs:   make(map[uint64]*context),
				rows:   make(map[rowKey]*row, top.n),
			}
			e.systems[sys] = sc
		}
		e.mu.Unlock()
	}

	perm, modHash, fp := sc.top.readMatrix(p)
	e.mu.Lock()
	ctx, ok := sc.ctxs[fp]
	e.mu.Unlock()
	if ok && sameBits(ctx.perm, perm) {
		return sc, ctx, nil
	}
	key := sc.top.activeKey(perm)
	e.mu.Lock()
	sh := sc.shapes[key]
	e.mu.Unlock()
	if sh == nil {
		sh = compileShape(sc.top, perm)
		e.mu.Lock()
		if prev, raced := sc.shapes[key]; raced {
			sh = prev
		} else {
			if len(sc.shapes) >= maxContexts {
				sc.shapes = make(map[string]*shape)
			}
			sc.shapes[key] = sh
		}
		e.mu.Unlock()
	}

	ctx = compileContext(sc.top, sh, perm, modHash, fp)
	e.mu.Lock()
	if prev, ok := sc.ctxs[fp]; ok && sameBits(prev.perm, perm) {
		ctx = prev
	} else {
		if len(sc.ctxs) >= maxContexts {
			sc.ctxs = make(map[uint64]*context)
		}
		sc.ctxs[fp] = ctx
	}
	e.mu.Unlock()
	return sc, ctx, nil
}

// sameBits reports whether two permeability vectors are equal bit for
// bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// rowFor returns the memoized impact row for one source, solving it on
// a miss with the powers pw of ctx: every signal, or with outputs set
// only the system outputs. The returned row is owned by the cache —
// callers must not mutate it.
func (e *Engine) rowFor(sc *sysCache, ctx *context, pw *powers, src int32, outputs bool) *row {
	k := rowKey{src: src, cone: ctx.coneKey[src], acyclic: ctx.acyclicFrom(src), outputs: outputs}
	e.mu.Lock()
	if r, ok := sc.rows[k]; ok {
		e.hits++
		e.mu.Unlock()
		return r
	}
	e.misses++
	e.mu.Unlock()

	vals, residual := ctx.solveRow(src, outputs, pw, e.params)
	r := &row{vals: vals}
	if outputs {
		sc.top.deriveOutputs(r)
	}

	e.mu.Lock()
	if residual > ctx.residual {
		ctx.residual = residual
	}
	if prev, ok := sc.rows[k]; ok {
		r = prev // a racing solve won; results are deterministic anyway
	} else {
		if len(sc.rows) >= maxRows {
			sc.rows = make(map[rowKey]*row)
		}
		sc.rows[k] = r
	}
	e.mu.Unlock()
	return r
}

// oneRow is rowFor for a call that reads a single row.
func (e *Engine) oneRow(sc *sysCache, ctx *context, src int32, outputs bool) *row {
	pw := newPowers(ctx)
	defer pw.release()
	return e.rowFor(sc, ctx, pw, src, outputs)
}

// Impact returns I(from → to), Eq. 2 — the drop-in analytic equivalent
// of core.Impact. An impact on a system output reads the outputs row
// that Profile shares.
func (e *Engine) Impact(p *core.Permeability, from, to model.SignalID) (float64, error) {
	sc, ctx, err := e.contextFor(p)
	if err != nil {
		return 0, err
	}
	sys := p.System()
	src, ok := sys.SignalIndex(from)
	if !ok {
		return 0, fmt.Errorf("analytic: unknown signal %q", from)
	}
	dst, ok := sys.SignalIndex(to)
	if !ok {
		return 0, fmt.Errorf("analytic: unknown signal %q", to)
	}
	if o := sc.top.outOrd[dst]; o >= 0 {
		return e.oneRow(sc, ctx, int32(src), true).vals[o], nil
	}
	return e.oneRow(sc, ctx, int32(src), false).vals[dst], nil
}

// Diag describes how the engine solved a matrix.
type Diag struct {
	// Acyclic reports whether the whole positive-permeability subgraph
	// is acyclic. Either way, the exact series solver runs every row
	// whose source reaches no cycle; the fixpoint runs the others.
	Acyclic bool
	// ActiveEdges counts positive, non-self-loop edges.
	ActiveEdges int
	// Residual is the largest unconverged solver bound observed across
	// the rows solved under this matrix (0 when all rows converged
	// within Params).
	Residual float64
	// Fingerprint identifies the compiled matrix content.
	Fingerprint uint64
}

// Diagnose compiles (or recalls) the matrix's context and reports it.
func (e *Engine) Diagnose(p *core.Permeability) (Diag, error) {
	_, ctx, err := e.contextFor(p)
	if err != nil {
		return Diag{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return Diag{
		Acyclic:     ctx.acyclic,
		ActiveEdges: len(ctx.act),
		Residual:    ctx.residual,
		Fingerprint: ctx.fp,
	}, nil
}
