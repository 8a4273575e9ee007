package model

import (
	"sort"
	"strings"
	"testing"
)

// tinySystem builds a two-module chain used across tests:
//
//	in -> [A] -> mid -> [B] -> out
//
// with an extra boolean flag produced by A and consumed by B.
func tinySystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewBuilder("tiny").
		AddSignal("in", Uint(16), AsSystemInput()).
		AddSignal("mid", Uint(16)).
		AddSignal("flag", Bool()).
		AddSignal("out", Uint(8), AsSystemOutput(1.0)).
		AddModule("A", In("in"), Out("mid", "flag")).
		AddModule("B", In("mid", "flag"), Out("out")).
		Build()
	if err != nil {
		t.Fatalf("Build() error: %v", err)
	}
	return sys
}

func TestBuilderBuildsValidSystem(t *testing.T) {
	sys := tinySystem(t)
	if got := sys.Name(); got != "tiny" {
		t.Errorf("Name() = %q, want %q", got, "tiny")
	}
	if got := len(sys.Modules()); got != 2 {
		t.Errorf("len(Modules()) = %d, want 2", got)
	}
	if got := len(sys.Signals()); got != 4 {
		t.Errorf("len(Signals()) = %d, want 4", got)
	}
}

func TestSystemBoundaryClassification(t *testing.T) {
	sys := tinySystem(t)
	if got := sys.SystemInputs(); len(got) != 1 || got[0] != "in" {
		t.Errorf("SystemInputs() = %v, want [in]", got)
	}
	if got := sys.SystemOutputs(); len(got) != 1 || got[0] != "out" {
		t.Errorf("SystemOutputs() = %v, want [out]", got)
	}
}

func TestProducersAndConsumers(t *testing.T) {
	sys := tinySystem(t)

	p, ok := sys.ProducerOf("mid")
	if !ok {
		t.Fatal("ProducerOf(mid) not found")
	}
	if p.Module != "A" || p.Index != 1 || p.Dir != DirOut {
		t.Errorf("ProducerOf(mid) = %+v, want A.out[1]", p)
	}

	if _, ok := sys.ProducerOf("in"); ok {
		t.Error("ProducerOf(in) should not exist for a system input")
	}

	cons := sys.ConsumersOf("mid")
	if len(cons) != 1 || cons[0].Module != "B" || cons[0].Index != 1 {
		t.Errorf("ConsumersOf(mid) = %+v, want [B.in[1]]", cons)
	}
	if got := sys.ConsumersOf("out"); len(got) != 0 {
		t.Errorf("ConsumersOf(out) = %v, want empty", got)
	}
}

func TestEdgesEnumeratesAllIOPairs(t *testing.T) {
	sys := tinySystem(t)
	edges := sys.Edges()
	// A: 1 input x 2 outputs, B: 2 inputs x 1 output -> 4 edges.
	if len(edges) != 4 {
		t.Fatalf("len(Edges()) = %d, want 4", len(edges))
	}
	want := []Edge{
		{Module: "A", In: 1, Out: 1, From: "in", To: "mid"},
		{Module: "A", In: 1, Out: 2, From: "in", To: "flag"},
		{Module: "B", In: 1, Out: 1, From: "mid", To: "out"},
		{Module: "B", In: 2, Out: 1, From: "flag", To: "out"},
	}
	for i, e := range edges {
		if e != want[i] {
			t.Errorf("Edges()[%d] = %+v, want %+v", i, e, want[i])
		}
	}
}

func TestOutEdgesInEdges(t *testing.T) {
	sys := tinySystem(t)
	if got := sys.OutEdges("in"); len(got) != 2 {
		t.Errorf("OutEdges(in) has %d edges, want 2", len(got))
	}
	in := sys.InEdges("out")
	if len(in) != 2 {
		t.Fatalf("InEdges(out) has %d edges, want 2", len(in))
	}
	for _, e := range in {
		if e.To != "out" {
			t.Errorf("InEdges(out) contains edge to %q", e.To)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name    string
		build   func() (*System, error)
		wantSub string
	}{
		{
			name: "duplicate signal",
			build: func() (*System, error) {
				return NewBuilder("x").
					AddSignal("s", Uint(8)).
					AddSignal("s", Uint(8)).
					Build()
			},
			wantSub: "duplicate signal",
		},
		{
			name: "duplicate module",
			build: func() (*System, error) {
				return NewBuilder("x").
					AddSignal("s", Uint(8), AsSystemInput()).
					AddSignal("o", Uint(8), AsSystemOutput(1)).
					AddModule("M", In("s"), Out("o")).
					AddModule("M", In("s"), Out()).
					Build()
			},
			wantSub: "duplicate module",
		},
		{
			name: "undeclared signal",
			build: func() (*System, error) {
				return NewBuilder("x").
					AddModule("M", In("ghost"), Out()).
					Build()
			},
			wantSub: "undeclared signal",
		},
		{
			name: "two producers",
			build: func() (*System, error) {
				return NewBuilder("x").
					AddSignal("in", Uint(8), AsSystemInput()).
					AddSignal("s", Uint(8)).
					AddModule("M1", In("in"), Out("s")).
					AddModule("M2", In("in"), Out("s")).
					Build()
			},
			wantSub: "written by both",
		},
		{
			name: "system input with producer",
			build: func() (*System, error) {
				return NewBuilder("x").
					AddSignal("in", Uint(8), AsSystemInput()).
					AddSignal("si", Uint(8), AsSystemInput()).
					AddModule("M", In("in"), Out("si")).
					Build()
			},
			wantSub: "is written by a module",
		},
		{
			name: "orphan intermediate",
			build: func() (*System, error) {
				return NewBuilder("x").
					AddSignal("orphan", Uint(8)).
					Build()
			},
			wantSub: "no producing module",
		},
		{
			name: "criticality out of range",
			build: func() (*System, error) {
				return NewBuilder("x").
					AddSignal("in", Uint(8), AsSystemInput()).
					AddSignal("o", Uint(8), AsSystemOutput(1.5)).
					AddModule("M", In("in"), Out("o")).
					Build()
			},
			wantSub: "criticality",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.build()
			if err == nil {
				t.Fatal("Build() = nil error, want failure")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not contain %q", err, tt.wantSub)
			}
		})
	}
}

func TestModuleDeclPortLookup(t *testing.T) {
	sys := tinySystem(t)
	b, _ := sys.Module("B")
	if sid, ok := b.InputSignal(2); !ok || sid != "flag" {
		t.Errorf("B.InputSignal(2) = %q,%v want flag,true", sid, ok)
	}
	if _, ok := b.InputSignal(0); ok {
		t.Error("InputSignal(0) should fail (ports are 1-based)")
	}
	if _, ok := b.InputSignal(3); ok {
		t.Error("InputSignal(3) should fail (only 2 inputs)")
	}
	if sid, ok := b.OutputSignal(1); !ok || sid != "out" {
		t.Errorf("B.OutputSignal(1) = %q,%v want out,true", sid, ok)
	}
}

func TestSortedSignalIDs(t *testing.T) {
	sys := tinySystem(t)
	ids := sys.SortedSignalIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("SortedSignalIDs not sorted: %v", ids)
		}
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindIntermediate, "intermediate"},
		{KindSystemInput, "system-input"},
		{KindSystemOutput, "system-output"},
		{Kind(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.k), got, tt.want)
		}
	}
}

// SortedSignalIDs returns all signal names sorted lexicographically.
// Useful for deterministic reports independent of declaration order.
func (s *System) SortedSignalIDs() []SignalID {
	out := s.SignalIDs()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
