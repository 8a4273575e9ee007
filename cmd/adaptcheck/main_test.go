package main

import (
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestCheckAnalytic covers each bound of the solver timing contract and
// each missing-row case. Per-op times are wall_s/runs; the good rows
// are 1 ms rank + 4 ms sweep against a 600 ms campaign and a 0.5 ms
// incremental against a 6 ms cold solve.
func TestCheckAnalytic(t *testing.T) {
	good := func() []benchRow {
		return []benchRow{
			{Campaign: "permeability", Runs: 2326, WallS: 0.6},
			{Campaign: "analytic-rank", Runs: 100, WallS: 0.1},
			{Campaign: "analytic-sweep", Runs: 10, WallS: 0.04},
			{Campaign: "analytic-cold", Runs: 10, WallS: 0.06},
			{Campaign: "analytic-incremental", Runs: 100, WallS: 0.05},
		}
	}
	set := func(rows []benchRow, name string, runs int, wall float64) []benchRow {
		for i := range rows {
			if rows[i].Campaign == name {
				rows[i].Runs, rows[i].WallS = runs, wall
			}
		}
		return rows
	}
	drop := func(rows []benchRow, name string) []benchRow {
		var out []benchRow
		for _, r := range rows {
			if r.Campaign != name {
				out = append(out, r)
			}
		}
		return out
	}
	cases := []struct {
		name string
		rows []benchRow
		want []string // one substring per expected violation, in order
	}{
		{"contract met", good(), nil},
		{"exactly 100× and 10×", set(set(good(), "permeability", 1, 0.5), "analytic-incremental", 100, 0.06), nil},
		{"ranking + sweep over 50 ms", set(set(good(), "analytic-sweep", 10, 0.5), "permeability", 1, 10),
			[]string{"ranking + sweep takes 51.0 ms/op, want < 50 ms"}},
		{"not 100× faster than the campaign", set(good(), "permeability", 1, 0.4),
			[]string{"ranking + sweep (5.0 ms) is not 100× faster than the 400.0 ms permeability campaign"}},
		{"both ranking bounds", set(good(), "analytic-sweep", 10, 0.5),
			[]string{"want < 50 ms", "is not 100× faster than the 600.0 ms"}},
		{"incremental not 10× cold", set(good(), "analytic-incremental", 100, 0.07),
			[]string{"incremental re-analysis (0.70 ms/op) is not 10× faster than a cold solve (6.00 ms/op)"}},
		{"no rank row", drop(good(), "analytic-rank"),
			[]string{"B.json: missing analytic-rank / analytic-sweep rows"}},
		{"sweep row without runs", set(good(), "analytic-sweep", 0, 0.04),
			[]string{"B.json: missing analytic-rank / analytic-sweep rows"}},
		{"no permeability row", drop(good(), "permeability"),
			[]string{"B.json: no permeability campaign row"}},
		{"no cold row", drop(good(), "analytic-cold"),
			[]string{"B.json: missing analytic-cold / analytic-incremental rows"}},
		{"no incremental row", drop(good(), "analytic-incremental"),
			[]string{"B.json: missing analytic-cold / analytic-incremental rows"}},
		{"no rows", nil, []string{"missing analytic-rank", "missing analytic-cold"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := checkAnalytic("B.json", tc.rows)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d violation(s) %q, want %d", len(got), got, len(tc.want))
			}
			for i, w := range tc.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("violation %d = %q, want it to contain %q", i, got[i], w)
				}
			}
		})
	}
}

// TestValidateFlags covers each mode's flag checks, all of which run
// before any file is read or target looked up.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name                             string
		mode, exact, adaptive, bench, ev string
		z                                float64
		perClass                         int
		ok                               bool
	}{
		{name: "samples", mode: "samples", exact: "e.json", adaptive: "a.json", z: 1.96, perClass: 8, ok: true},
		{name: "samples with bench", mode: "samples", exact: "e.json", adaptive: "a.json", bench: "B.json", z: 1.96, perClass: 8, ok: true},
		{name: "liveness", mode: "liveness", z: 1.96, perClass: 1, ok: true},
		{name: "analytic", mode: "analytic", bench: "B.json", z: 1.96, perClass: 8, ok: true},
		{name: "trace", mode: "trace", ev: "ev.ndjson", z: 1.96, perClass: 8, ok: true},
		{name: "unknown mode", mode: "sample", exact: "e.json", adaptive: "a.json", z: 1.96, perClass: 8},
		{name: "empty mode", mode: "", z: 1.96, perClass: 8},
		{name: "samples without exact", mode: "samples", adaptive: "a.json", z: 1.96, perClass: 8},
		{name: "samples without adaptive", mode: "samples", exact: "e.json", z: 1.96, perClass: 8},
		{name: "zero z", mode: "samples", exact: "e.json", adaptive: "a.json", z: 0, perClass: 8},
		{name: "negative z", mode: "samples", exact: "e.json", adaptive: "a.json", z: -1, perClass: 8},
		{name: "analytic without bench", mode: "analytic", z: 1.96, perClass: 8},
		{name: "trace without events", mode: "trace", z: 1.96, perClass: 8},
		{name: "zero per-class", mode: "liveness", z: 1.96, perClass: 0},
		{name: "negative per-class", mode: "liveness", z: 1.96, perClass: -3},
	} {
		err := validateFlags(tc.mode, tc.exact, tc.adaptive, tc.bench, tc.ev, tc.z, tc.perClass)
		if (err == nil) != tc.ok {
			t.Errorf("%s: validateFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestLivenessVerdict: an audit with witness runs and no violation
// reports sound pruning; one with no witness run reports that it had
// nothing to prove.
func TestLivenessVerdict(t *testing.T) {
	for _, tc := range []struct {
		proofs int
		want   string
	}{
		{0, "adaptcheck: tank: no masked target sampled, no witness run — nothing to prove"},
		{4, "adaptcheck: tank: every witness matched its golden trace — pruning is sound"},
	} {
		res := &experiment.LivenessAuditResult{Target: "tank", Cases: 6, Proofs: tc.proofs}
		if got := livenessVerdict(res); got != tc.want {
			t.Errorf("%d witness run(s): %q, want %q", tc.proofs, got, tc.want)
		}
	}
}
