package core

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// TreeKind distinguishes the propagation-path structures of Section 5.2.
type TreeKind int

// Tree kinds.
const (
	// KindTraceTree depicts propagation paths from a signal downstream
	// toward system outputs.
	KindTraceTree TreeKind = iota + 1
	// KindBacktrackTree depicts the paths errors can take to reach a
	// signal, expanding upstream toward system inputs.
	KindBacktrackTree
	// KindImpactTree is a trace tree whose paths carry weights — the
	// product of the permeabilities along the path (Section 8, Fig. 4).
	KindImpactTree
)

// String implements fmt.Stringer.
func (k TreeKind) String() string {
	switch k {
	case KindTraceTree:
		return "trace tree"
	case KindBacktrackTree:
		return "backtrack tree"
	case KindImpactTree:
		return "impact tree"
	default:
		return "unknown tree"
	}
}

// Node is one vertex of a propagation tree.
type Node struct {
	// Signal at this vertex.
	Signal model.SignalID
	// Edge is the module input/output pair traversed from the parent
	// (zero Edge at the root).
	Edge model.Edge
	// Weight is the product of permeabilities from the root to this
	// node (1 at the root; only meaningful for impact trees).
	Weight float64
	// Children are the continuations; a node with no children is a leaf
	// (a system boundary signal or a cycle cut).
	Children []*Node
}

// Tree is a propagation tree rooted at a signal.
type Tree struct {
	Kind TreeKind
	Root *Node
}

// Path is one root-to-leaf propagation path.
type Path struct {
	// Signals traversed, root first.
	Signals []model.SignalID
	// Edges traversed (len(Signals)-1 of them).
	Edges []model.Edge
	// Weight is the product of edge permeabilities (impact trees only;
	// 0 otherwise).
	Weight float64
}

// String renders "a -> b -> c (w=0.021)".
func (p Path) String() string {
	parts := make([]string, len(p.Signals))
	for i, s := range p.Signals {
		parts[i] = string(s)
	}
	return fmt.Sprintf("%s (w=%.3f)", strings.Join(parts, " -> "), p.Weight)
}

// DefaultMaxTreeNodes bounds propagation-tree growth. The number of
// simple paths — and hence tree nodes — can grow exponentially with
// graph depth (reconvergent fan-out doubles the path count per layer),
// so the builders stop with a clear error instead of exhausting memory.
// Systems that trip the cap should use internal/analytic's solver,
// which computes Eq. 2 without enumerating paths.
const DefaultMaxTreeNodes = 1 << 20

// BuildTraceTree expands the propagation paths from a signal downstream.
// A path never revisits a signal (cycles are cut), which is what makes
// the i→i self-loop of the target harmless in Table 5. Growth is capped
// at DefaultMaxTreeNodes; use BuildTraceTreeN to choose the cap.
func BuildTraceTree(sys *model.System, from model.SignalID) (*Tree, error) {
	return BuildTraceTreeN(sys, from, DefaultMaxTreeNodes)
}

// BuildTraceTreeN is BuildTraceTree with an explicit node cap.
func BuildTraceTreeN(sys *model.System, from model.SignalID, maxNodes int) (*Tree, error) {
	if _, ok := sys.Signal(from); !ok {
		return nil, fmt.Errorf("core: unknown signal %q", from)
	}
	root := &Node{Signal: from, Weight: 1}
	x := &expansion{sys: sys, budget: maxNodes - 1, max: maxNodes}
	if err := x.down(root, map[model.SignalID]bool{from: true}); err != nil {
		return nil, fmt.Errorf("core: trace tree rooted at %q: %w", from, err)
	}
	return &Tree{Kind: KindTraceTree, Root: root}, nil
}

// BuildImpactTree is BuildTraceTree with path weights accumulated from
// the permeability matrix. Growth is capped at DefaultMaxTreeNodes; use
// BuildImpactTreeN to choose the cap.
func BuildImpactTree(p *Permeability, from model.SignalID) (*Tree, error) {
	return BuildImpactTreeN(p, from, DefaultMaxTreeNodes)
}

// BuildImpactTreeN is BuildImpactTree with an explicit node cap.
func BuildImpactTreeN(p *Permeability, from model.SignalID, maxNodes int) (*Tree, error) {
	if _, ok := p.sys.Signal(from); !ok {
		return nil, fmt.Errorf("core: unknown signal %q", from)
	}
	root := &Node{Signal: from, Weight: 1}
	x := &expansion{sys: p.sys, perm: p, budget: maxNodes - 1, max: maxNodes}
	if err := x.down(root, map[model.SignalID]bool{from: true}); err != nil {
		return nil, fmt.Errorf("core: impact tree rooted at %q: %w", from, err)
	}
	return &Tree{Kind: KindImpactTree, Root: root}, nil
}

// BuildBacktrackTree expands the paths errors can take to reach a signal,
// upstream toward system inputs. Cycles are cut as in trace trees, and
// growth is capped at DefaultMaxTreeNodes (see BuildBacktrackTreeN).
func BuildBacktrackTree(sys *model.System, to model.SignalID) (*Tree, error) {
	return BuildBacktrackTreeN(sys, to, DefaultMaxTreeNodes)
}

// BuildBacktrackTreeN is BuildBacktrackTree with an explicit node cap.
func BuildBacktrackTreeN(sys *model.System, to model.SignalID, maxNodes int) (*Tree, error) {
	if _, ok := sys.Signal(to); !ok {
		return nil, fmt.Errorf("core: unknown signal %q", to)
	}
	root := &Node{Signal: to, Weight: 1}
	x := &expansion{sys: sys, budget: maxNodes - 1, max: maxNodes}
	if err := x.up(root, map[model.SignalID]bool{to: true}); err != nil {
		return nil, fmt.Errorf("core: backtrack tree rooted at %q: %w", to, err)
	}
	return &Tree{Kind: KindBacktrackTree, Root: root}, nil
}

// errNodeCap is the error of a tree (or of BuildProfile's walk) that
// outgrows a cap of max nodes.
func errNodeCap(max int) error {
	return fmt.Errorf("exceeds %d nodes (pathological path fan-out; raise the cap or use internal/analytic)", max)
}

// expansion carries the shared node budget through the recursive build.
type expansion struct {
	sys    *model.System
	perm   *Permeability
	budget int // nodes still allowed beyond the root
	max    int // original cap, for the error message
}

func (x *expansion) spend() error {
	if x.budget <= 0 {
		return errNodeCap(x.max)
	}
	x.budget--
	return nil
}

func (x *expansion) down(n *Node, onPath map[model.SignalID]bool) error {
	for _, e := range x.sys.OutEdges(n.Signal) {
		if onPath[e.To] {
			continue // cycle cut
		}
		if err := x.spend(); err != nil {
			return err
		}
		w := n.Weight
		if x.perm != nil {
			w *= x.perm.Get(e)
		}
		child := &Node{Signal: e.To, Edge: e, Weight: w}
		n.Children = append(n.Children, child)
		onPath[e.To] = true
		err := x.down(child, onPath)
		delete(onPath, e.To)
		if err != nil {
			return err
		}
	}
	return nil
}

func (x *expansion) up(n *Node, onPath map[model.SignalID]bool) error {
	for _, e := range x.sys.InEdges(n.Signal) {
		if onPath[e.From] {
			continue
		}
		if err := x.spend(); err != nil {
			return err
		}
		child := &Node{Signal: e.From, Edge: e, Weight: 0}
		n.Children = append(n.Children, child)
		onPath[e.From] = true
		err := x.up(child, onPath)
		delete(onPath, e.From)
		if err != nil {
			return err
		}
	}
	return nil
}

// PathsTo returns every root-to-node path ending at the given signal —
// for impact trees, the paths whose weights enter Eq. 2. The result is
// bounded by the node cap the tree was built under (every returned path
// ends at a distinct node).
func (t *Tree) PathsTo(dest model.SignalID) []Path {
	var out []Path
	collectPaths(t.Root, nil, nil, &out, dest)
	return out
}

// collectPaths appends to out the path to every node of n's subtree
// named dest, except the tree's root; sigs and edges are the path down
// to n.
func collectPaths(n *Node, sigs []model.SignalID, edges []model.Edge, out *[]Path, dest model.SignalID) {
	sigs = append(sigs, n.Signal)
	if n.Edge != (model.Edge{}) {
		edges = append(edges, n.Edge)
	}
	if n.Signal == dest && len(edges) > 0 {
		*out = append(*out, Path{
			Signals: append([]model.SignalID(nil), sigs...),
			Edges:   append([]model.Edge(nil), edges...),
			Weight:  n.Weight,
		})
	}
	for _, c := range n.Children {
		collectPaths(c, sigs, edges, out, dest)
	}
}

// Render draws the tree as indented ASCII, one node per line, with path
// weights on impact trees.
func (t *Tree) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s rooted at %s\n", t.Kind, t.Root.Signal)
	renderNode(&b, t.Root, "", t.Kind == KindImpactTree)
	return b.String()
}

func renderNode(b *strings.Builder, n *Node, prefix string, weights bool) {
	for i, c := range n.Children {
		connector := "├─"
		childPrefix := prefix + "│ "
		if i == len(n.Children)-1 {
			connector = "└─"
			childPrefix = prefix + "  "
		}
		if weights {
			fmt.Fprintf(b, "%s%s %s (w=%.3f)\n", prefix, connector, c.Signal, c.Weight)
		} else {
			fmt.Fprintf(b, "%s%s %s\n", prefix, connector, c.Signal)
		}
		renderNode(b, c, childPrefix, weights)
	}
}
