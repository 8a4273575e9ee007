package model

import (
	"bytes"
	"os"
	"testing"
)

// FuzzUnmarshalSystem fuzzes the system decoder behind user -model
// files (also shipped to workers in the campaign spec): no input may
// panic, and an accepted input must re-marshal to JSON that decodes
// and re-marshals byte-identically. Plain `go test` runs the seeds;
// `go test -fuzz FuzzUnmarshalSystem` explores.
func FuzzUnmarshalSystem(f *testing.F) {
	for _, path := range []string{"../sut/multiout.json", "../oracle/cyclic_fixture.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","signals":[{"id":"a","width":8,"kind":"input"},{"id":"b","width":8,"kind":"output","criticality":1}],"modules":[{"id":"M","inputs":["a"],"outputs":["b"]}]}`))
	f.Add([]byte(`{"name":"x","signals":[{"id":"a","width":0,"kind":"bogus"}]}`))
	f.Add([]byte(`{"modules":[{"id":"M","inputs":["a","a"],"outputs":[]}]}`))
	f.Add([]byte(`{"signals":[{"id":"a","width":255,"signed":true,"initial":18446744073709551615}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := UnmarshalSystem(data)
		if err != nil {
			return
		}
		first, err := sys.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted system does not marshal: %v", err)
		}
		again, err := UnmarshalSystem(first)
		if err != nil {
			t.Fatalf("re-marshaled system does not decode: %v\n%s", err, first)
		}
		second, err := again.MarshalJSON()
		if err != nil {
			t.Fatalf("re-decoded system does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip is not stable:\n%s\n---\n%s", first, second)
		}
	})
}
