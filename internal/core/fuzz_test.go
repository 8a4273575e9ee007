package core

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/model"
)

// FuzzUnmarshalPermeability fuzzes the permeability decoder against
// the two JSON-described systems in the repository: no input may
// panic, and an accepted matrix must re-marshal to JSON that decodes
// and re-marshals byte-identically. Plain `go test` runs the seeds;
// `go test -fuzz FuzzUnmarshalPermeability` explores.
func FuzzUnmarshalPermeability(f *testing.F) {
	var systems []*model.System
	for _, path := range []string{"../sut/multiout.json", "../oracle/cyclic_fixture.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		sys, err := model.UnmarshalSystem(data)
		if err != nil {
			f.Fatal(err)
		}
		systems = append(systems, sys)
		// Seed each system's matrix with distinct values on every pair.
		p := NewPermeability(sys)
		for i, e := range sys.Edges() {
			if err := p.SetEdge(e, float64(i%5)/4); err != nil {
				f.Fatal(err)
			}
		}
		seed, err := p.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"system":"multiout","entries":[{"module":"NOPE","in":1,"out":1,"value":0.5}]}`))
	f.Add([]byte(`{"system":"cyclic-feedback","entries":[{"module":"LOOP","in":1,"out":1,"value":1.5}]}`))
	f.Add([]byte(`{"system":"cyclic-feedback","entries":[{"module":"LOOP","in":9,"out":-1,"value":-0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sys := range systems {
			p, err := UnmarshalPermeability(sys, data)
			if err != nil {
				continue
			}
			first, err := p.MarshalJSON()
			if err != nil {
				t.Fatalf("accepted matrix does not marshal: %v", err)
			}
			again, err := UnmarshalPermeability(sys, first)
			if err != nil {
				t.Fatalf("re-marshaled matrix does not decode: %v\n%s", err, first)
			}
			second, err := again.MarshalJSON()
			if err != nil {
				t.Fatalf("re-decoded matrix does not marshal: %v", err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("round trip is not stable:\n%s\n---\n%s", first, second)
			}
		}
	})
}
