package model_test

import (
	"os"
	"slices"
	"testing"

	"repro/internal/analytic"
	"repro/internal/model"
	"repro/internal/oracle"
	"repro/internal/paper"
	"repro/internal/tank"
)

// TestEdgeTablesMatchPortScan checks the edge tables built at Build
// against a brute-force scan over module ports on every shipped system
// shape: Edges, OutEdges and InEdges in order, shared slices that a
// caller's append cannot change, nothing for an unknown signal, and
// EdgeIndex round-tripping every edge.
func TestEdgeTablesMatchPortScan(t *testing.T) {
	multiout, err := os.ReadFile("../sut/multiout.json")
	if err != nil {
		t.Fatal(err)
	}
	multi, err := model.UnmarshalSystem(multiout)
	if err != nil {
		t.Fatal(err)
	}
	grid, _ := analytic.Grid(5, 3)
	cyclic, _ := oracle.CyclicFixture()
	for _, sys := range []*model.System{paper.System(), tank.NewSystem(), multi, grid, cyclic} {
		t.Run(sys.Name(), func(t *testing.T) {
			var want []model.Edge
			for _, m := range sys.Modules() {
				for _, in := range m.Inputs {
					for _, out := range m.Outputs {
						want = append(want, model.Edge{Module: m.ID, In: in.Index, Out: out.Index, From: in.Signal, To: out.Signal})
					}
				}
			}
			checkShared(t, "Edges", sys.Edges, want)
			for _, id := range sys.SignalIDs() {
				var out, in []model.Edge
				for _, e := range want {
					if e.From == id {
						out = append(out, e)
					}
					if e.To == id {
						in = append(in, e)
					}
				}
				checkShared(t, "OutEdges("+string(id)+")", func() []model.Edge { return sys.OutEdges(id) }, out)
				checkShared(t, "InEdges("+string(id)+")", func() []model.Edge { return sys.InEdges(id) }, in)
			}
			if got := sys.OutEdges("no-such-signal"); got != nil {
				t.Errorf("OutEdges(unknown) = %v, want nil", got)
			}
			if got := sys.InEdges("no-such-signal"); got != nil {
				t.Errorf("InEdges(unknown) = %v, want nil", got)
			}
			for i, e := range want {
				if got, ok := sys.EdgeIndex(e); !ok || got != i {
					t.Errorf("EdgeIndex(%+v) = %d, %v; want %d, true", e, got, ok, i)
				}
				lo, hi, ok := sys.ModuleEdges(e.Module)
				if !ok || i < lo || i >= hi {
					t.Errorf("ModuleEdges(%s) = [%d,%d) %v, does not hold edge %d", e.Module, lo, hi, ok, i)
				}
			}
		})
	}
}

// checkShared compares get() with want, appends to the result and
// checks that the next call is unchanged.
func checkShared(t *testing.T, name string, get func() []model.Edge, want []model.Edge) {
	t.Helper()
	got := get()
	if !slices.Equal(got, want) {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
	_ = append(got, model.Edge{Module: "appended"})
	if again := get(); !slices.Equal(again, want) {
		t.Fatalf("%s after a caller's append = %v, want %v", name, again, want)
	}
}

func TestEdgeIndexRejectsForeignEdges(t *testing.T) {
	sys := paper.System()
	e := sys.Edges()[3]
	bad := map[string]model.Edge{
		"unknown module":  {Module: "NOPE", In: e.In, Out: e.Out, From: e.From, To: e.To},
		"input 0":         {Module: e.Module, In: 0, Out: e.Out, From: e.From, To: e.To},
		"output past end": {Module: e.Module, In: e.In, Out: 99, From: e.From, To: e.To},
		"wrong From":      {Module: e.Module, In: e.In, Out: e.Out, From: "nope", To: e.To},
		"wrong To":        {Module: e.Module, In: e.In, Out: e.Out, From: e.From, To: "nope"},
	}
	for name, b := range bad {
		if i, ok := sys.EdgeIndex(b); ok {
			t.Errorf("%s: EdgeIndex(%+v) = %d, true; want false", name, b, i)
		}
	}
	if _, _, ok := sys.ModuleEdges("NOPE"); ok {
		t.Error("ModuleEdges(unknown) reported ok")
	}
}
