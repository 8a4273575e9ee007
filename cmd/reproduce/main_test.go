package main

import "testing"

func TestValidateSelection(t *testing.T) {
	for _, tc := range []struct {
		mode, artifact string
		ok             bool
	}{
		{"both", "all", true},
		{"paper", "table5", true},
		{"measured", "table1", true},
		{"measured", "figure3", true},
		{"paper", "figure6", true},
		{"measured", "extensions", true},
		{"paper", "tabel5", false},
		{"paper", "table6", false},
		{"paper", "figure2", false},
		{"paper", "", false},
		{"paper", "Table1", false},
		{"measure", "all", false},
		{"", "all", false},
		{"Both", "table1", false},
	} {
		err := validateSelection(tc.mode, tc.artifact)
		if (err == nil) != tc.ok {
			t.Errorf("validateSelection(%q, %q) = %v, want ok=%v", tc.mode, tc.artifact, err, tc.ok)
		}
	}
}
