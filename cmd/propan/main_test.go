package main

import (
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name        string
		source      string
		perInput    int
		workers     int
		saveSamples string
		wantErr     string
	}{
		{name: "paper defaults", source: "paper", perInput: 500, workers: 8},
		{name: "measure with samples", source: "measure", perInput: 1, workers: 1, saveSamples: "s.json"},
		{name: "zero per-input", source: "paper", perInput: 0, workers: 8, wantErr: "-per-input"},
		{name: "negative per-input", source: "measure", perInput: -5, workers: 8, wantErr: "-per-input"},
		{name: "zero workers", source: "paper", perInput: 500, workers: 0, wantErr: "-workers"},
		{name: "negative workers", source: "measure", perInput: 500, workers: -1, wantErr: "-workers"},
		{name: "unknown source", source: "file", perInput: 500, workers: 8, wantErr: "-source"},
		{name: "empty source", source: "", perInput: 500, workers: 8, wantErr: "-source"},
		{name: "samples without measure", source: "paper", perInput: 500, workers: 8, saveSamples: "s.json",
			wantErr: "-save-samples requires -source measure"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.source, c.perInput, c.workers, c.saveSamples)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want one mentioning %q", err, c.wantErr)
			}
		})
	}
}
