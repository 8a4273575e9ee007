package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
)

// Paths returns every root-to-leaf path of the tree.
func (t *Tree) Paths() []Path {
	var out []Path
	var walk func(n *Node, sigs []model.SignalID, edges []model.Edge)
	walk = func(n *Node, sigs []model.SignalID, edges []model.Edge) {
		sigs = append(sigs, n.Signal)
		if n.Edge != (model.Edge{}) {
			edges = append(edges, n.Edge)
		}
		if len(n.Children) == 0 {
			out = append(out, Path{
				Signals: append([]model.SignalID(nil), sigs...),
				Edges:   append([]model.Edge(nil), edges...),
				Weight:  n.Weight,
			})
		}
		for _, c := range n.Children {
			walk(c, sigs, edges)
		}
	}
	walk(t.Root, nil, nil)
	return out
}

func TestTraceTreeStructure(t *testing.T) {
	sys := chainSystem(t)
	tree, err := BuildTraceTree(sys, "in")
	if err != nil {
		t.Fatal(err)
	}
	if tree.Kind != KindTraceTree {
		t.Errorf("Kind = %v", tree.Kind)
	}
	paths := tree.Paths()
	// in->m1->out and in->m2->out.
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if p.Signals[0] != "in" || p.Signals[len(p.Signals)-1] != "out" {
			t.Errorf("path %v does not run in..out", p.Signals)
		}
		if len(p.Edges) != len(p.Signals)-1 {
			t.Errorf("path has %d edges for %d signals", len(p.Edges), len(p.Signals))
		}
	}
	if tree.Size() != 5 { // in, m1, out, m2, out
		t.Errorf("Size = %d, want 5", tree.Size())
	}
}

func TestBacktrackTreeStructure(t *testing.T) {
	sys := chainSystem(t)
	tree, err := BuildBacktrackTree(sys, "out")
	if err != nil {
		t.Fatal(err)
	}
	paths := tree.Paths()
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if p.Signals[0] != "out" || p.Signals[len(p.Signals)-1] != "in" {
			t.Errorf("backtrack path %v does not run out..in", p.Signals)
		}
	}
}

func TestTreesRejectUnknownSignals(t *testing.T) {
	sys := chainSystem(t)
	if _, err := BuildTraceTree(sys, "ghost"); err == nil {
		t.Error("trace tree of unknown signal accepted")
	}
	if _, err := BuildBacktrackTree(sys, "ghost"); err == nil {
		t.Error("backtrack tree of unknown signal accepted")
	}
	p := NewPermeability(sys)
	if _, err := BuildImpactTree(p, "ghost"); err == nil {
		t.Error("impact tree of unknown signal accepted")
	}
}

func TestTreesAreAcyclic(t *testing.T) {
	sys := loopSystem(t)
	tree, err := BuildTraceTree(sys, "s")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tree.Paths() {
		seen := map[model.SignalID]bool{}
		for _, s := range p.Signals {
			if seen[s] {
				t.Fatalf("path %v revisits %s", p.Signals, s)
			}
			seen[s] = true
		}
	}
	bt, err := BuildBacktrackTree(sys, "out")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range bt.Paths() {
		seen := map[model.SignalID]bool{}
		for _, s := range p.Signals {
			if seen[s] {
				t.Fatalf("backtrack path %v revisits %s", p.Signals, s)
			}
			seen[s] = true
		}
	}
}

func TestImpactTreeWeights(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.5)
	p.MustSet("A", 1, 2, 0.2)
	p.MustSet("B", 1, 1, 0.8)
	p.MustSet("B", 2, 1, 0.5)

	tree, err := BuildImpactTree(p, "in")
	if err != nil {
		t.Fatal(err)
	}
	paths := tree.PathsTo("out")
	if len(paths) != 2 {
		t.Fatalf("PathsTo(out) = %d, want 2", len(paths))
	}
	weights := map[string]float64{}
	for _, path := range paths {
		weights[string(path.Signals[1])] = path.Weight
	}
	if !approx(weights["m1"], 0.4) {
		t.Errorf("weight via m1 = %v, want 0.4", weights["m1"])
	}
	if !approx(weights["m2"], 0.1) {
		t.Errorf("weight via m2 = %v, want 0.1", weights["m2"])
	}
}

func TestPathsToMatchesIntermediate(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.5)
	tree, err := BuildImpactTree(p, "in")
	if err != nil {
		t.Fatal(err)
	}
	paths := tree.PathsTo("m1")
	if len(paths) != 1 {
		t.Fatalf("PathsTo(m1) = %d, want 1", len(paths))
	}
	if !approx(paths[0].Weight, 0.5) {
		t.Errorf("weight = %v, want 0.5", paths[0].Weight)
	}
	// The root does not count as a path to itself.
	if got := tree.PathsTo("in"); len(got) != 0 {
		t.Errorf("PathsTo(root) = %d paths, want 0", len(got))
	}
}

func TestImpactFromPathsClamps(t *testing.T) {
	if got := ImpactFromPaths(nil); got != 0 {
		t.Errorf("ImpactFromPaths(nil) = %v, want 0", got)
	}
	paths := []Path{{Weight: 1}, {Weight: 0.5}}
	if got := ImpactFromPaths(paths); got != 1 {
		t.Errorf("ImpactFromPaths = %v, want 1", got)
	}
}

func TestRenderShowsStructureAndWeights(t *testing.T) {
	sys := chainSystem(t)
	p := NewPermeability(sys)
	p.MustSet("A", 1, 1, 0.5)
	p.MustSet("B", 1, 1, 0.8)
	tree, err := BuildImpactTree(p, "in")
	if err != nil {
		t.Fatal(err)
	}
	r := tree.Render()
	for _, want := range []string{"impact tree rooted at in", "m1", "out", "w=0.400"} {
		if !strings.Contains(r, want) {
			t.Errorf("Render() missing %q:\n%s", want, r)
		}
	}
	tt, err := BuildTraceTree(sys, "in")
	if err != nil {
		t.Fatal(err)
	}
	if r := tt.Render(); strings.Contains(r, "w=") {
		t.Error("trace tree render shows weights")
	}
}

func TestPathString(t *testing.T) {
	p := Path{Signals: []model.SignalID{"a", "b"}, Weight: 0.25}
	if got := p.String(); got != "a -> b (w=0.250)" {
		t.Errorf("String() = %q", got)
	}
}

func TestTreeNodeCapErrors(t *testing.T) {
	sys, p := fanoutSystem(t, 10)
	// A generous cap succeeds...
	if _, err := BuildImpactTreeN(p, "l0_0", 1<<20); err != nil {
		t.Fatalf("uncapped build failed: %v", err)
	}
	// ...a tight cap fails fast with an explanatory error.
	if _, err := BuildImpactTreeN(p, "l0_0", 50); err == nil {
		t.Error("tight impact-tree cap not enforced")
	} else if !strings.Contains(err.Error(), "internal/analytic") {
		t.Errorf("cap error does not point at the solver: %v", err)
	}
	if _, err := BuildTraceTreeN(sys, "l0_0", 50); err == nil {
		t.Error("tight trace-tree cap not enforced")
	}
	if _, err := BuildBacktrackTreeN(sys, "l9_0", 50); err == nil {
		t.Error("tight backtrack-tree cap not enforced")
	}
}

// fanoutSystem builds `layers` ranks of two signals with full cross
// wiring — 2^(layers-1) root-to-leaf paths, the reconvergent shape the
// caps exist for.
func fanoutSystem(t *testing.T, layers int) (*model.System, *Permeability) {
	t.Helper()
	b := model.NewBuilder("fanout")
	id := func(l, i int) model.SignalID {
		return model.SignalID(fmt.Sprintf("l%d_%d", l, i))
	}
	for l := 0; l < layers; l++ {
		for i := 0; i < 2; i++ {
			switch l {
			case 0:
				b.AddSignal(id(l, i), model.Uint(8), model.AsSystemInput())
			case layers - 1:
				b.AddSignal(id(l, i), model.Uint(8), model.AsSystemOutput(1))
			default:
				b.AddSignal(id(l, i), model.Uint(8))
			}
		}
	}
	for l := 1; l < layers; l++ {
		for i := 0; i < 2; i++ {
			b.AddModule(model.ModuleID(fmt.Sprintf("F%d_%d", l, i)),
				model.In(id(l-1, 0), id(l-1, 1)), model.Out(id(l, i)))
		}
	}
	sys := b.MustBuild()
	p := NewPermeability(sys)
	for _, e := range sys.Edges() {
		if err := p.SetEdge(e, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	return sys, p
}

// Size returns the number of nodes in the tree.
func (t *Tree) Size() int { return countNodes(t.Root) }

func countNodes(n *Node) int {
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}
