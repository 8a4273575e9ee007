package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestValidateDispatchFlags pins the scheduling-flag checks of
// cmd/inject and cmd/reproduce: each bad invocation fails before any
// campaign work, with a message naming the offending flag.
func TestValidateDispatchFlags(t *testing.T) {
	dir := t.TempDir()
	notDir := filepath.Join(dir, "plain-file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name         string
		workers      int
		shards       int
		shardTimeout time.Duration
		retries      int
		checkpoint   string
		dispatch     bool
		wantErr      string // substring of the error; "" wants none
	}{
		{name: "defaults", workers: 1},
		{name: "dispatch tuned", workers: 4, shards: 8, shardTimeout: time.Minute, retries: 2, dispatch: true},
		{name: "checkpoint implies tuning", workers: 2, retries: -1, checkpoint: filepath.Join(dir, "ck.journal")},
		{name: "checkpoint in cwd", workers: 1, checkpoint: "ck.journal"},
		{name: "zero workers", workers: 0, wantErr: "-workers 0"},
		{name: "negative shards", workers: 1, shards: -1, wantErr: "-shards -1"},
		{name: "negative shard timeout", workers: 1, shardTimeout: -5 * time.Second, dispatch: true, wantErr: "-shard-timeout -5s"},
		{name: "retries -2", workers: 1, retries: -2, dispatch: true, wantErr: "-retries -2"},
		{name: "shard timeout without dispatch", workers: 1, shardTimeout: time.Second, wantErr: "require -dispatch or -checkpoint"},
		{name: "retries without dispatch", workers: 1, retries: 3, wantErr: "require -dispatch or -checkpoint"},
		{name: "checkpoint parent not a directory", workers: 1, dispatch: true,
			checkpoint: filepath.Join(notDir, "ck.journal"), wantErr: "is not a directory"},
		{name: "checkpoint parent missing", workers: 1, dispatch: true,
			checkpoint: filepath.Join(dir, "missing", "ck.journal"), wantErr: "is not a directory"},
	}
	for _, tc := range cases {
		err := ValidateDispatchFlags(tc.workers, tc.shards, tc.shardTimeout, tc.retries, tc.checkpoint, tc.dispatch)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
