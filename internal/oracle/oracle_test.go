package oracle

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoBinaryImportsOracle keeps test-only packages out of the
// commands and examples: neither this package nor the chaos fault
// injector may appear in their import graph.
func TestNoBinaryImportsOracle(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not found")
	}
	out, err := exec.Command(gobin, "list", "-deps", "repro/cmd/...", "repro/examples/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	deps := map[string]bool{}
	for _, pkg := range strings.Fields(string(out)) {
		deps[pkg] = true
	}
	if !deps["repro/internal/core"] {
		t.Fatalf("go list -deps did not list the framework:\n%s", out)
	}
	for _, pkg := range []string{"repro/internal/oracle", "repro/internal/campaign/chaos"} {
		if deps[pkg] {
			t.Errorf("%s is in the import graph of the commands and examples", pkg)
		}
	}
}
