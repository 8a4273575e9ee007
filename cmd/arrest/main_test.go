package main

import (
	"testing"

	"repro/internal/model"
)

func TestParseFlip(t *testing.T) {
	cases := []struct {
		spec    string
		sig     model.SignalID
		bit     uint8
		ms      int64
		wantErr bool
	}{
		{spec: "PACNT:9@3000", sig: "PACNT", bit: 9, ms: 3000},
		{spec: "SetValue:0@0", sig: "SetValue", bit: 0, ms: 0},
		{spec: "", wantErr: true},
		{spec: "PACNT", wantErr: true},
		{spec: "PACNT@3", wantErr: true},           // no bit field
		{spec: "PACNT:9", wantErr: true},           // no time field
		{spec: ":9@3000", wantErr: true},           // empty signal
		{spec: "PACNT:@3000", wantErr: true},       // empty bit
		{spec: "PACNT:9@", wantErr: true},          // empty time
		{spec: "PACNT@3000:9", wantErr: true},      // fields swapped
		{spec: "PACNT;9@3000", wantErr: true},      // wrong separator
		{spec: "PACNT:9,3000", wantErr: true},      // wrong separator
		{spec: "PACNT:-1@3000", wantErr: true},     // negative bit
		{spec: "PACNT:256@3000", wantErr: true},    // bit overflows a byte
		{spec: "PACNT:x@3000", wantErr: true},      // non-numeric bit
		{spec: "PACNT:9@-5", wantErr: true},        // negative time
		{spec: "PACNT:9@3.5", wantErr: true},       // fractional time
		{spec: "PACNT:9@NaN", wantErr: true},       // non-numeric time
		{spec: "PACNT:9@3000@4000", wantErr: true}, // trailing field
	}
	for _, tc := range cases {
		sig, bit, ms, err := parseFlip(tc.spec)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseFlip(%q): err = %v, wantErr = %v", tc.spec, err, tc.wantErr)
			continue
		}
		if err == nil && (sig != tc.sig || bit != tc.bit || ms != tc.ms) {
			t.Errorf("parseFlip(%q) = %s, %d, %d; want %s, %d, %d", tc.spec, sig, bit, ms, tc.sig, tc.bit, tc.ms)
		}
	}
}

// TestRigSignalCheck pins the second half of -flip validation: a
// well-formed spec naming an unknown signal fails before any run.
func TestRigSignalCheck(t *testing.T) {
	if _, ok := rigSignalCheck("PACNT"); !ok {
		t.Error("PACNT not found on the arrestment rig")
	}
	for _, sig := range []model.SignalID{"BOGUS", "pacnt", ""} {
		if _, ok := rigSignalCheck(sig); ok {
			t.Errorf("unknown signal %q accepted", sig)
		}
	}
}
