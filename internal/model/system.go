package model

import "fmt"

// PortBinding attaches a signal to a numbered port.
type PortBinding struct {
	// Index is the 1-based port number.
	Index int
	// Signal is the attached signal.
	Signal SignalID
}

// ModuleDecl is the static, black-box view of a module: its identity and
// which signals are bound to its numbered input and output ports. Module
// behaviour lives entirely in the runtime layer (Runnable).
type ModuleDecl struct {
	ID ModuleID
	// Inputs and Outputs are ordered by port index (1..n, contiguous).
	Inputs  []PortBinding
	Outputs []PortBinding
	// Doc is an optional human-readable description.
	Doc string

	// Dense resolution of the port bindings, filled by System.finalize:
	// position p of these slices corresponds to port index p+1.
	inIdx  []int
	outIdx []int
	// edgeBase is the index in System.Edges of the module's first edge.
	edgeBase int
}

// InputSignal returns the signal bound to input port index (1-based).
func (m *ModuleDecl) InputSignal(index int) (SignalID, bool) {
	if index < 1 || index > len(m.Inputs) {
		return "", false
	}
	return m.Inputs[index-1].Signal, true
}

// OutputSignal returns the signal bound to output port index (1-based).
func (m *ModuleDecl) OutputSignal(index int) (SignalID, bool) {
	if index < 1 || index > len(m.Outputs) {
		return "", false
	}
	return m.Outputs[index-1].Signal, true
}

// Edge is one potential propagation step: input port i of module Module
// reads signal From, and output port k writes signal To. The propagation
// analysis framework assigns each edge an error permeability P^M_{i,k}.
type Edge struct {
	Module ModuleID
	// In and Out are 1-based port indices.
	In, Out int
	// From and To are the signals bound to those ports.
	From, To SignalID
}

// System is the static description of a modular software system: the
// wiring graph over which error propagation is analyzed.
//
// At build time every signal is interned to a dense index (its position
// in declaration order). The runtime layer (Bus, Exec, trace recorders)
// uses these indices for slice-based access, keeping the string-keyed
// SignalID API at the edges.
type System struct {
	name      string
	modules   map[ModuleID]*ModuleDecl
	signals   map[SignalID]*Signal
	modOrder  []ModuleID
	sigOrder  []SignalID
	producers map[SignalID]PortRef   // signal -> producing output port
	consumers map[SignalID][]PortRef // signal -> consuming input ports

	sigIdx  map[SignalID]int // signal -> dense index (declaration order)
	sigList []*Signal        // dense index -> signal
	codecs  []Codec          // dense index -> the signal's word codec

	// Edge tables, built once by finalize. edges is in system edge
	// order; byFrom and byTo hold the same edges grouped by the dense
	// index of their From (To) signal, in system edge order within a
	// group: the edges of signal i are byFrom[fromLo[i]:fromLo[i+1]].
	edges  []Edge
	byFrom []Edge
	fromLo []int
	byTo   []Edge
	toLo   []int

	// outputs lists the system outputs in declaration order, built once
	// by finalize.
	outputs []SignalID
}

// finalize interns signals to dense indices and pre-resolves every
// module port binding to its signal's index. Called once from
// Builder.Build after validation; the System is immutable afterwards.
func (s *System) finalize() {
	s.sigIdx = make(map[SignalID]int, len(s.sigOrder))
	s.sigList = make([]*Signal, len(s.sigOrder))
	s.codecs = make([]Codec, len(s.sigOrder))
	for i, id := range s.sigOrder {
		s.sigIdx[id] = i
		s.sigList[i] = s.signals[id]
		s.codecs[i] = s.sigList[i].Type.Codec()
	}
	for _, mid := range s.modOrder {
		m := s.modules[mid]
		m.inIdx = make([]int, len(m.Inputs))
		for i, pb := range m.Inputs {
			m.inIdx[i] = s.sigIdx[pb.Signal]
		}
		m.outIdx = make([]int, len(m.Outputs))
		for k, pb := range m.Outputs {
			m.outIdx[k] = s.sigIdx[pb.Signal]
		}
	}
	s.outputs = s.signalsOfKind(KindSystemOutput)
	s.buildEdges()
}

// buildEdges fills the edge tables: every input/output pair of every
// module in module declaration order, then input index, then output
// index, plus the per-signal groupings (a stable counting sort, so each
// group keeps that order).
func (s *System) buildEdges() {
	for _, mid := range s.modOrder {
		m := s.modules[mid]
		m.edgeBase = len(s.edges)
		for _, in := range m.Inputs {
			for _, out := range m.Outputs {
				s.edges = append(s.edges, Edge{
					Module: mid,
					In:     in.Index,
					Out:    out.Index,
					From:   in.Signal,
					To:     out.Signal,
				})
			}
		}
	}
	n := len(s.sigList)
	s.byFrom, s.fromLo = groupEdges(s.edges, n, func(e Edge) int { return s.sigIdx[e.From] })
	s.byTo, s.toLo = groupEdges(s.edges, n, func(e Edge) int { return s.sigIdx[e.To] })
}

// groupEdges sorts edges stably by key into n groups and returns them
// with the group offsets (group i is out[lo[i]:lo[i+1]]).
func groupEdges(edges []Edge, n int, key func(Edge) int) (out []Edge, lo []int) {
	lo = make([]int, n+1)
	for _, e := range edges {
		lo[key(e)+1]++
	}
	for i := 0; i < n; i++ {
		lo[i+1] += lo[i]
	}
	out = make([]Edge, len(edges))
	fill := append([]int(nil), lo[:n]...)
	for _, e := range edges {
		k := key(e)
		out[fill[k]] = e
		fill[k]++
	}
	return out, lo
}

// NumSignals returns the number of declared signals (and the length of
// the dense index space).
func (s *System) NumSignals() int { return len(s.sigList) }

// SignalIndex returns the dense index of a signal, assigned in
// declaration order at build time.
func (s *System) SignalIndex(id SignalID) (int, bool) {
	i, ok := s.sigIdx[id]
	return i, ok
}

// SignalAt returns the signal at a dense index. It panics on
// out-of-range indices — indices come from SignalIndex, so a bad one is
// a harness bug.
func (s *System) SignalAt(i int) *Signal { return s.sigList[i] }

// Name returns the system name.
func (s *System) Name() string { return s.name }

// Module returns the declaration of the named module.
func (s *System) Module(id ModuleID) (*ModuleDecl, bool) {
	m, ok := s.modules[id]
	return m, ok
}

// Modules returns all module declarations in declaration order.
func (s *System) Modules() []*ModuleDecl {
	out := make([]*ModuleDecl, 0, len(s.modOrder))
	for _, id := range s.modOrder {
		out = append(out, s.modules[id])
	}
	return out
}

// Signal returns the named signal.
func (s *System) Signal(id SignalID) (*Signal, bool) {
	sig, ok := s.signals[id]
	return sig, ok
}

// Signals returns all signals in declaration order.
func (s *System) Signals() []*Signal {
	out := make([]*Signal, 0, len(s.sigOrder))
	for _, id := range s.sigOrder {
		out = append(out, s.signals[id])
	}
	return out
}

// SignalIDs returns all signal names in declaration order.
func (s *System) SignalIDs() []SignalID {
	out := make([]SignalID, len(s.sigOrder))
	copy(out, s.sigOrder)
	return out
}

// SystemInputs returns the system input signals in declaration order.
func (s *System) SystemInputs() []SignalID { return s.signalsOfKind(KindSystemInput) }

// SystemOutputs returns the system output signals in declaration order.
// The slice is shared and must not be written; appending to it copies.
func (s *System) SystemOutputs() []SignalID { return s.outputs[:len(s.outputs):len(s.outputs)] }

func (s *System) signalsOfKind(k Kind) []SignalID {
	var out []SignalID
	for _, id := range s.sigOrder {
		if s.signals[id].Kind == k {
			out = append(out, id)
		}
	}
	return out
}

// ProducerOf returns the output port that writes the signal. System
// inputs have no producer (ok == false).
func (s *System) ProducerOf(id SignalID) (PortRef, bool) {
	p, ok := s.producers[id]
	return p, ok
}

// ConsumersOf returns the input ports that read the signal. The returned
// slice is a copy and safe to mutate.
func (s *System) ConsumersOf(id SignalID) []PortRef {
	src := s.consumers[id]
	out := make([]PortRef, len(src))
	copy(out, src)
	return out
}

// Edges enumerates every input/output pair of every module — exactly the
// pairs for which the paper defines an error permeability (Eq. 1). Edges
// are ordered by module declaration order, then input index, then output
// index; for the arrestment target this yields the 25 pairs of Table 1.
// The slice is shared and must not be written; appending to it copies.
func (s *System) Edges() []Edge { return s.edges[:len(s.edges):len(s.edges)] }

// EdgeIndex returns e's position in Edges, or false when e is not an
// edge of the system (unknown module or ports, or signals that do not
// match the ports' bindings).
func (s *System) EdgeIndex(e Edge) (int, bool) {
	m, ok := s.modules[e.Module]
	if !ok || e.In < 1 || e.In > len(m.Inputs) || e.Out < 1 || e.Out > len(m.Outputs) {
		return 0, false
	}
	i := m.edgeBase + (e.In-1)*len(m.Outputs) + e.Out - 1
	return i, s.edges[i] == e
}

// ModuleEdges returns the half-open range [lo, hi) of Edges that holds
// the module's input/output pairs, or false for an unknown module.
func (s *System) ModuleEdges(id ModuleID) (lo, hi int, ok bool) {
	m, ok := s.modules[id]
	if !ok {
		return 0, 0, false
	}
	return m.edgeBase, m.edgeBase + len(m.Inputs)*len(m.Outputs), true
}

// OutEdges returns the edges whose From signal is id, in Edges order
// (nil for an unknown signal). The slice is shared like Edges.
func (s *System) OutEdges(id SignalID) []Edge { return s.group(s.byFrom, s.fromLo, id) }

// InEdges returns the edges whose To signal is id, in Edges order (nil
// for an unknown signal). The slice is shared like Edges.
func (s *System) InEdges(id SignalID) []Edge { return s.group(s.byTo, s.toLo, id) }

func (s *System) group(edges []Edge, lo []int, id SignalID) []Edge {
	i, ok := s.sigIdx[id]
	if !ok {
		return nil
	}
	return edges[lo[i]:lo[i+1]:lo[i+1]]
}

// ModuleIDs returns all module names in declaration order.
func (s *System) ModuleIDs() []ModuleID {
	out := make([]ModuleID, len(s.modOrder))
	copy(out, s.modOrder)
	return out
}

// Validate re-checks structural invariants. Systems obtained from
// Builder.Build are already validated; Validate is exposed for systems
// reconstructed from serialized descriptions.
func (s *System) Validate() error {
	for _, id := range s.sigOrder {
		sig := s.signals[id]
		if err := sig.Type.Validate(); err != nil {
			return fmt.Errorf("signal %q: %w", id, err)
		}
		_, hasProducer := s.producers[id]
		switch sig.Kind {
		case KindSystemInput:
			if hasProducer {
				return fmt.Errorf("model: system input %q is written by a module", id)
			}
		case KindSystemOutput, KindIntermediate:
			if !hasProducer {
				return fmt.Errorf("model: signal %q (%s) has no producing module", id, sig.Kind)
			}
		default:
			return fmt.Errorf("model: signal %q has invalid kind %d", id, int(sig.Kind))
		}
		if sig.Criticality < 0 || sig.Criticality > 1 {
			return fmt.Errorf("model: signal %q criticality %v outside [0,1]", id, sig.Criticality)
		}
	}
	for _, mid := range s.modOrder {
		m := s.modules[mid]
		if err := contiguous(m.Inputs); err != nil {
			return fmt.Errorf("module %q inputs: %w", mid, err)
		}
		if err := contiguous(m.Outputs); err != nil {
			return fmt.Errorf("module %q outputs: %w", mid, err)
		}
	}
	return nil
}

func contiguous(ports []PortBinding) error {
	for i, p := range ports {
		if p.Index != i+1 {
			return fmt.Errorf("model: port %d bound at position %d (indices must be contiguous from 1)", p.Index, i)
		}
	}
	return nil
}
