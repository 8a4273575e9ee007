package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/model"
)

// permJSON is the serialized form of a permeability matrix: one entry
// per module input/output pair, in system edge order.
type permJSON struct {
	System  string          `json:"system"`
	Entries []permEntryJSON `json:"entries"`
}

type permEntryJSON struct {
	Module model.ModuleID `json:"module"`
	In     int            `json:"in"`
	Out    int            `json:"out"`
	Value  float64        `json:"value"`
}

// MarshalJSON serializes the matrix (zero entries included, so the file
// is a complete Table 1 for its system).
func (p *Permeability) MarshalJSON() ([]byte, error) {
	out := permJSON{System: p.sys.Name()}
	for i, e := range p.sys.Edges() {
		out.Entries = append(out.Entries, permEntryJSON{
			Module: e.Module, In: e.In, Out: e.Out, Value: p.values[i],
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalPermeability reconstructs a matrix against a system
// description. The system name must match and every entry must resolve
// to an edge of the system.
func UnmarshalPermeability(sys *model.System, data []byte) (*Permeability, error) {
	var in permJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("core: decode permeability: %w", err)
	}
	if in.System != sys.Name() {
		return nil, fmt.Errorf("core: matrix is for system %q, not %q", in.System, sys.Name())
	}
	p := NewPermeability(sys)
	for _, e := range in.Entries {
		if err := p.Set(e.Module, e.In, e.Out, e.Value); err != nil {
			return nil, err
		}
	}
	return p, nil
}
