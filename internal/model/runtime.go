package model

import "fmt"

// Exec is the execution context handed to a module invocation. It scopes
// port I/O to the module's declared bindings, so a module can only touch
// signals wired to its own ports — preserving the black-box discipline at
// runtime.
type Exec struct {
	bus  *Bus
	decl *ModuleDecl
	now  int64 // milliseconds since system start
}

// NewExec binds an execution context for one invocation of a module.
// nowMs is the scheduler's notion of elapsed time in milliseconds.
func NewExec(bus *Bus, decl *ModuleDecl, nowMs int64) *Exec {
	return &Exec{bus: bus, decl: decl, now: nowMs}
}

// Bind re-targets the context at another module invocation. The
// scheduler allocates one Exec and rebinds it every step, keeping the
// inner loop allocation-free.
func (e *Exec) Bind(decl *ModuleDecl, nowMs int64) {
	e.decl = decl
	e.now = nowMs
}

// In reads the module's input port index (1-based) through the bus read
// hooks (where transient fault injection attaches). With no read hook
// installed it decodes the stored word directly.
func (e *Exec) In(index int) Word {
	d, b := e.decl, e.bus
	if index < 1 || index > len(d.Inputs) {
		panic(fmt.Sprintf("model: module %s has no input port %d", d.ID, index))
	}
	i := d.inIdx[index-1]
	if len(b.reads) == 0 {
		return b.codecs[i].Decode(b.values[i])
	}
	return b.readIdx(PortRef{Module: d.ID, Dir: DirIn, Index: index}, d.Inputs[index-1].Signal, i)
}

// InBool reads an input port as a boolean.
func (e *Exec) InBool(index int) bool { return e.In(index) != 0 }

// Out writes the module's output port index (1-based) through the bus
// write filters and hooks (where recovery wrappers and the trace
// recorder attach). With neither installed it stores the encoded word
// directly.
func (e *Exec) Out(index int, v Word) {
	d, b := e.decl, e.bus
	if index < 1 || index > len(d.Outputs) {
		panic(fmt.Sprintf("model: module %s has no output port %d", d.ID, index))
	}
	i := d.outIdx[index-1]
	if len(b.writes) == 0 && len(b.filters) == 0 {
		b.values[i] = b.codecs[i].Encode(v)
		return
	}
	b.writeIdx(PortRef{Module: d.ID, Dir: DirOut, Index: index}, d.Outputs[index-1].Signal, i, v)
}

// OutBool writes a boolean output port.
func (e *Exec) OutBool(index int, v bool) {
	var w Word
	if v {
		w = 1
	}
	e.Out(index, w)
}

// NowMs returns the scheduler time of this invocation in milliseconds.
func (e *Exec) NowMs() int64 { return e.now }

// Module returns the declaration of the executing module.
func (e *Exec) Module() *ModuleDecl { return e.decl }

// Runnable is the behaviour of a module. Implementations live outside
// this package (internal/target provides the six arrestment modules); the
// analysis framework never sees Runnable — modules stay black boxes.
type Runnable interface {
	// ModuleID returns the identity this behaviour implements; it must
	// match a ModuleDecl in the system the behaviour is registered with.
	ModuleID() ModuleID
	// Step executes one invocation: read inputs, update state, write
	// outputs. Step must be deterministic given its inputs and state.
	Step(e *Exec)
	// Reset restores the module's internal state to power-on values.
	Reset()
}
