package traceview

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the event-log parser, seeded with
// a real -events-out log of a dispatched Table 1 campaign and the
// truncated fixture. Parse must not panic, and the critical path,
// folded-stack and report renderers must terminate on whatever forest
// it returns. Plain `go test` runs the seeds; `go test -fuzz FuzzParse`
// explores.
func FuzzParse(f *testing.F) {
	events, err := os.ReadFile("testdata/events.ndjson")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(events)
	f.Add([]byte(fixture))
	f.Add([]byte(`{"kind":"span","name":"a","span":1,"parent":2}` + "\n" +
		`{"kind":"span","name":"b","span":2,"parent":1}` + "\n" +
		`{"kind":"span","name":"campaign","span":1,"ts_ms":-9223372036854775808,"dur_ms":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if a.Skipped > a.Lines {
			t.Fatalf("skipped %d of %d lines", a.Skipped, a.Lines)
		}
		for _, root := range a.Roots {
			if path := CriticalPath(root); path[0].Span != root {
				t.Fatalf("critical path starts at %q, not its root %q", path[0].Span.Name, root.Name)
			}
		}
		if err := WriteFolded(io.Discard, a); err != nil {
			t.Fatal(err)
		}
		if err := WriteReport(io.Discard, a, 5); err != nil {
			t.Fatal(err)
		}
	})
}
