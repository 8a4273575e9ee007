package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/paper"
)

func TestParseFactors(t *testing.T) {
	cases := []struct {
		csv     string
		want    []float64
		wantErr bool
	}{
		{csv: "0,0.25,0.5,0.75,1", want: []float64{0, 0.25, 0.5, 0.75, 1}},
		{csv: " 0.5 , 2 ,", want: []float64{0.5, 2}},
		{csv: "1e-3", want: []float64{1e-3}},
		{csv: "", wantErr: true},
		{csv: " , ,", wantErr: true},
		{csv: "0.5;1", wantErr: true}, // wrong separator
		{csv: "0.5 1", wantErr: true}, // wrong separator
		{csv: "half", wantErr: true},
		{csv: "0,-1", wantErr: true},
		{csv: "-0.5", wantErr: true},
		{csv: "NaN", wantErr: true},
		{csv: "0.5,Inf", wantErr: true},
		{csv: "+Inf", wantErr: true},
		{csv: "-Inf", wantErr: true},
		{csv: "1e400", wantErr: true}, // overflows to +Inf
	}
	for _, tc := range cases {
		got, err := parseFactors(tc.csv)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseFactors(%q): err = %v, wantErr = %v", tc.csv, err, tc.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseFactors(%q) = %v, want %v", tc.csv, got, tc.want)
		}
	}
}

func TestParseModules(t *testing.T) {
	sys := paper.System()
	cases := []struct {
		csv     string
		want    []model.ModuleID
		wantErr bool
	}{
		{csv: "", want: sys.ModuleIDs()},
		{csv: "  ", want: sys.ModuleIDs()},
		{csv: "CALC", want: []model.ModuleID{"CALC"}},
		{csv: " CALC ,, PRES_A ,", want: []model.ModuleID{"CALC", "PRES_A"}},
		{csv: ",", wantErr: true},
		{csv: "BOGUS", wantErr: true},
		{csv: "CALC,BOGUS", wantErr: true},
		{csv: "calc", wantErr: true},        // names are case-sensitive
		{csv: "CALC;PRES_A", wantErr: true}, // wrong separator
	}
	for _, tc := range cases {
		got, err := parseModules(sys, tc.csv)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseModules(%q): err = %v, wantErr = %v", tc.csv, err, tc.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseModules(%q) = %v, want %v", tc.csv, got, tc.want)
		}
	}
}

// TestSelectionsMatchTreeReference renders the placement study from the
// analytic profile and from tree-based path enumeration on the paper's
// matrix: the strings must be identical.
func TestSelectionsMatchTreeReference(t *testing.T) {
	p := paper.Table1()
	ana, err := analytic.New().Profile(p)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.BuildProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	got, want := selections(ana), selections(tree)
	if got != want {
		t.Fatalf("analytic rendering differs from the tree reference:\n%s\n--- tree:\n%s", got, want)
	}
	if !strings.Contains(got, "Table 2") {
		t.Fatalf("rendering lacks Table 2:\n%s", got)
	}
}
