package dispatch

import (
	"bytes"
	"context"
	"encoding/base64"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// TestCheckpointResumeIsByteIdentical is the resume pin: a campaign
// killed mid-flight leaves a journal from which a second invocation
// replays the completed shards, executes only the missing ones, and
// reduces byte-identically to an uninterrupted run.
func TestCheckpointResumeIsByteIdentical(t *testing.T) {
	const n = 32
	want := serialBaseline(t, n)
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")

	// First invocation: a deterministic failure aborts the campaign
	// partway; every shard completed before the abort is journaled.
	var log1 bytes.Buffer
	first := &Subprocess{Workers: 1, Shards: 8, Checkpoint: ckpt, Retries: -1, Log: &log1}
	c1 := cubes{n: n, failAt: 19, hits: &atomic.Int64{}}
	if _, err := campaign.Execute[int, int, string](context.Background(), c1, first, nil); err == nil {
		t.Fatal("first invocation should have aborted at run 19")
	}
	if c1.hits.Load() == 0 {
		t.Fatal("first invocation executed nothing; the resume test is vacuous")
	}

	// Second invocation: same campaign identity, no failure. Journaled
	// shards are replayed, not re-executed, and count as done in Live.
	tel := obs.New(obs.Config{})
	defer obs.Install(obs.Install(tel))
	var log2 bytes.Buffer
	second := &Subprocess{Workers: 1, Shards: 8, Checkpoint: ckpt, Log: &log2}
	c2 := cubes{n: n, failAt: -1, hits: &atomic.Int64{}}
	var snap obs.Snapshot
	got, err := campaign.Execute[int, int, string](context.Background(), liveAtReduce{c2, tel, &snap}, second, nil)
	if err != nil {
		t.Fatalf("resume: %v\nlog:\n%s", err, log2.String())
	}
	if cp := snap.Campaign; cp == nil || cp.ShardsTotal != 8 || cp.ShardsDone != cp.ShardsTotal || len(snap.Shards) != 8 {
		t.Errorf("Live at the end of the resumed campaign: %+v with %d shard statuses, want 8/8 shards done", cp, len(snap.Shards))
	}
	if got != want {
		t.Errorf("resumed output diverged from uninterrupted run\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(log2.String(), "resumed") {
		t.Errorf("resume log does not account for replayed shards:\n%s", log2.String())
	}
	if c2.hits.Load() >= n {
		t.Errorf("resume re-executed all %d runs; journaled shards were not replayed", n)
	}
	if c2.hits.Load() == 0 {
		t.Error("resume executed nothing, but the first run aborted before completing")
	}

	// Third invocation: everything journaled; zero runs execute.
	third := &Subprocess{Workers: 1, Shards: 8, Checkpoint: ckpt}
	c3 := cubes{n: n, failAt: -1, hits: &atomic.Int64{}}
	if got, err := campaign.Execute[int, int, string](context.Background(), c3, third, nil); err != nil || got != want {
		t.Fatalf("fully journaled replay: got %q err %v", got, err)
	}
	if c3.hits.Load() != 0 {
		t.Errorf("fully journaled replay still executed %d runs", c3.hits.Load())
	}
}

// liveAtReduce is cubes that records Live's snapshot as the campaign
// reduces: every shard has finished and the campaign is still running.
type liveAtReduce struct {
	cubes
	tel  *obs.Telemetry
	snap *obs.Snapshot
}

func (c liveAtReduce) Reduce(plan []int, results []int) (string, error) {
	*c.snap = c.tel.Live.Snapshot()
	return c.cubes.Reduce(plan, results)
}

// TestCheckpointResumeAcrossWorkerProcesses runs the interrupted
// campaign on real worker subprocesses both times; the journal is
// written and consumed by the parent, so crash recovery composes with
// dispatch.
func TestCheckpointResumeAcrossWorkerProcesses(t *testing.T) {
	const n = 24
	want := serialBaseline(t, n)
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")

	first := subproc(t, n, envFailAt+"=7")
	first.Workers, first.Shards, first.Checkpoint, first.Retries = 2, 8, ckpt, -1
	if _, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), first, nil); err == nil {
		t.Fatal("first invocation should have aborted at the worker's failing run")
	}

	var log bytes.Buffer
	second := subproc(t, n)
	second.Workers, second.Shards, second.Checkpoint, second.Log = 2, 8, ckpt, &log
	got, err := campaign.Execute[int, int, string](context.Background(), newCubes(n), second, nil)
	if err != nil {
		t.Fatalf("resume: %v\nlog:\n%s", err, log.String())
	}
	if got != want {
		t.Errorf("resumed output diverged\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointIgnoresForeignJournals pins journal keying: entries are
// bound to (campaign, plan hash), so a journal written by a different
// plan (different n) is never replayed into this campaign.
func TestCheckpointIgnoresForeignJournals(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.ckpt")

	// Journal a full 16-run campaign.
	s16 := &Subprocess{Workers: 1, Shards: 4, Checkpoint: ckpt}
	if _, err := campaign.Execute[int, int, string](context.Background(), newCubes(16), s16, nil); err != nil {
		t.Fatal(err)
	}

	// A 32-run campaign sharing the journal must execute all 32 runs.
	s32 := &Subprocess{Workers: 1, Shards: 4, Checkpoint: ckpt}
	c := cubes{n: 32, failAt: -1, hits: &atomic.Int64{}}
	got, err := campaign.Execute[int, int, string](context.Background(), c, s32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialBaseline(t, 32); got != want {
		t.Errorf("foreign journal leaked into the output\n got %s\nwant %s", got, want)
	}
	if c.hits.Load() != 32 {
		t.Errorf("executed %d of 32 runs; a foreign journal entry was replayed", c.hits.Load())
	}
}

// TestJournalToleratesTornTail pins crash tolerance in the journal
// itself: a write cut short mid-frame (the SIGKILL case) drops only
// the torn entry; every intact entry before it still resumes.
func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	good := []runPayload{{Index: 0, Payload: []byte(`7`)}, {Index: 3, Payload: []byte(`11`)}}
	if err := j.append("cubes", hex64(42), hex64(7), good); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a frame length promising more bytes
	// than follow.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 1, 0, '{', '"'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore, _ := os.Stat(path)

	j2, err := openJournal(path)
	if err != nil {
		t.Fatalf("openJournal on torn tail: %v", err)
	}
	defer j2.close()
	results, ok := j2.lookup("cubes", hex64(42), hex64(7))
	if !ok || len(results) != 2 || string(results[1].Payload) != `11` {
		t.Fatalf("intact entry lost behind the torn tail: %v %v", results, ok)
	}
	sizeAfter, _ := os.Stat(path)
	if sizeAfter.Size() >= sizeBefore.Size() {
		t.Errorf("torn tail not truncated: %d -> %d bytes", sizeBefore.Size(), sizeAfter.Size())
	}

	// The reopened journal appends cleanly after the truncation.
	if err := j2.append("cubes", hex64(42), hex64(9), good); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	j2.close()
	j3, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.close()
	if _, ok := j3.lookup("cubes", hex64(42), hex64(9)); !ok {
		t.Error("entry appended after truncation did not survive a reload")
	}
}

// TestJournalRejectsCorruptedEntries pins the integrity hash on disk: a
// flipped byte inside a journaled payload invalidates that entry (and
// the tail behind it) instead of resuming corrupted results.
func TestJournalRejectsCorruptedEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.ckpt")
	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append("cubes", hex64(1), hex64(2), []runPayload{{Index: 0, Payload: []byte(`123456789`)}}); err != nil {
		t.Fatal(err)
	}
	j.close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// []byte payloads cross the JSON frame base64-encoded; flip one
	// character to another valid base64 character so the frame still
	// parses and the integrity hash is what catches the corruption.
	b64 := base64.StdEncoding.EncodeToString([]byte(`123456789`))
	i := bytes.Index(raw, []byte(b64))
	if i < 0 {
		t.Fatal("payload bytes not found in journal")
	}
	raw[i] ^= 0x01 // 'M' -> 'L'
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := openJournal(path)
	if err != nil {
		t.Fatalf("openJournal on corrupted entry: %v", err)
	}
	defer j2.close()
	if _, ok := j2.lookup("cubes", hex64(1), hex64(2)); ok {
		t.Error("corrupted entry survived the integrity check")
	}
}

// TestSubprocessShardTimeoutDefaults sanity-checks option defaulting.
func TestSubprocessShardTimeoutDefaults(t *testing.T) {
	co := (&Subprocess{}).coordinator()
	if co.shardTimeout() != DefaultShardTimeout {
		t.Errorf("shardTimeout = %v, want %v", co.shardTimeout(), DefaultShardTimeout)
	}
	if co.attempts() != defaultAttempts {
		t.Errorf("attempts = %d, want %d", co.attempts(), defaultAttempts)
	}
	if (&Subprocess{Retries: -1}).coordinator().attempts() != 1 {
		t.Error("negative Retries should disable retrying")
	}
	if (&Subprocess{ShardTimeout: time.Second}).coordinator().shardTimeout() != time.Second {
		t.Error("explicit ShardTimeout ignored")
	}
}
