package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/campaign"
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

// TestFastestWindow: the row takes the window with the least wall time
// per op, not the longest or the one with the most runs.
func TestFastestWindow(t *testing.T) {
	ws := []window{
		{runs: 10, wall: 20 * time.Millisecond},  // 2 ms/op
		{runs: 100, wall: 50 * time.Millisecond}, // 0.5 ms/op
		{runs: 200, wall: 60 * time.Millisecond}, // 0.3 ms/op
		{runs: 300, wall: 90 * time.Millisecond}, // 0.3 ms/op, a later equal
		{runs: 3, wall: 5 * time.Millisecond},    // 1.7 ms/op
	}
	if got, want := fastest(ws), ws[2]; got != want {
		t.Errorf("fastest = %+v, want %+v", got, want)
	}
}

// TestBenchLoopReportsFastestWindow: when every window but one runs
// slow ops, the row is that one window's, so its per-op time is the
// fast ops' and not a mean dragged up by the slow windows. The first
// window's windowMinIters slow ops overrun its budget, the second runs
// windowMaxIters fast ops, and every later op is slow again.
func TestBenchLoopReportsFastestWindow(t *testing.T) {
	slow := windowBudget/windowMinIters + time.Millisecond
	col := campaign.NewCollector()
	err := benchLoop(col, "probe", func(i int) error {
		if i < windowMinIters || i >= windowMinIters+windowMaxIters {
			time.Sleep(slow)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := col.Rows()
	if len(rows) != 1 || rows[0].Campaign != "probe" {
		t.Fatalf("rows = %+v, want one probe row", rows)
	}
	if r := rows[0]; r.Runs != windowMaxIters || r.WallS >= slow.Seconds() {
		t.Errorf("row has %d runs over %.4f s, want the fast window's %d runs in under %.4f s",
			r.Runs, r.WallS, windowMaxIters, slow.Seconds())
	}
}
