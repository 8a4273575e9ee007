package main

import (
	"reflect"
	"testing"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{in: "", want: nil},
		{in: " , ,", want: nil},
		{in: "arrestment", want: []string{"arrestment"}},
		{in: "arrestment,tank", want: []string{"arrestment", "tank"}},
		{in: " arrestment , ,tank ,", want: []string{"arrestment", "tank"}},
		// Only commas separate; anything else stays inside one item and
		// fails later as an unknown name.
		{in: "arrestment;tank", want: []string{"arrestment;tank"}},
		{in: "arrestment tank", want: []string{"arrestment tank"}},
	}
	for _, tc := range cases {
		if got := splitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitList(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestValidateMatrixFlags(t *testing.T) {
	cases := []struct {
		name               string
		targets, errModels string
		wantErr            bool
	}{
		{name: "defaults"},
		{name: "all named", targets: "arrestment,tank,multiout", errModels: "transient,stuck,burst,delay,omission"},
		{name: "one each", targets: "tank", errModels: "stuck"},
		{name: "unknown target", targets: "arrestment,bogus", wantErr: true},
		{name: "unknown error model", errModels: "transient,bogus", wantErr: true},
		{name: "case-sensitive target", targets: "Arrestment", wantErr: true},
		{name: "case-sensitive model", errModels: "Transient", wantErr: true},
		{name: "wrong target separator", targets: "arrestment;tank", wantErr: true},
		{name: "wrong model separator", errModels: "transient stuck", wantErr: true},
	}
	for _, tc := range cases {
		err := validateMatrixFlags(splitList(tc.targets), splitList(tc.errModels))
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", tc.name, err, tc.wantErr)
		}
	}
}
