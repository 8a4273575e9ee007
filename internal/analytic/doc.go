// Package analytic computes the paper's propagation measures — impact
// (Eq. 2), exposure (Eq. 1) and criticality (Eqs. 3–4) — by propagating
// probabilities over the wiring graph instead of enumerating propagation
// paths or sampling campaigns.
//
// The tree-based reference in internal/core materialises every acyclic
// path from a source to a destination; the number of such paths grows
// exponentially with reconvergent fan-out, so a single impact query can
// be exponential in graph depth. This package solves all destinations
// for one source in a fixed number of O(E) sweeps:
//
//   - For a source whose reach is acyclic it evaluates Eq. 2 exactly via
//     a power-series transform: log Π_paths (1 − w_p) = −Σ_{k≥1} S_k/k
//     where S_k = Σ_paths w_p^k is a path sum computable by one
//     topological sweep with edge weights perm^k. The truncation error
//     is provably below a stated tolerance (see docs/analytic.md).
//   - For a source that reaches a cycle of positive-permeability edges
//     it runs a monotone Kleene/Gauss–Seidel fixpoint over strongly
//     connected components, converging to the least fixpoint of the
//     node-failure equations within a bounded sweep count.
//
// Edges with zero permeability and self-loops are dropped before
// solving: zero-weight paths contribute a factor of 1 to Eq. 2's
// product, and self-loops never lie on a simple path. This is what
// makes the arrestment target — structurally cyclic through CALC's
// i→i self-loop and the i↔mscnt clock loop, but with zero measured
// permeability on those edges — an exact, acyclic solve.
//
// Engine adds FastFlip-style compositional memoization on top: each
// module's permeability sub-matrix is content-hashed, per-source
// results are keyed by the hash of the modules in the source's
// downstream cone, and a what-if change (core.ScaleModule, a
// re-profiled module) therefore invalidates only the rows whose cone
// contains the changed module — incremental re-analysis instead of a
// cold solve.
package analytic
