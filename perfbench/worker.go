package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign/dispatch"
	"repro/internal/experiment"
	"repro/internal/obs"
)

// statsPrefix starts the report line a worker writes to standard error.
const statsPrefix = "perfbench-worker "

// workerReport is the running account of one worker process: bytes it
// read and wrote on the shard protocol, the time it spent building
// campaigns (golden runs included), and its peak resident memory.
type workerReport struct {
	BytesIn, BytesOut int64
	GoldenNs          int64
	PeakRSSMB         float64
}

// serveWorker is the benchmark binary's worker mode: what
// experiment.ServeWorker does (decode the spec, serve shards on
// stdin/stdout), with the protocol streams and the campaign lookup
// wrapped so the benchmark can account for them from outside. Before
// every frame it writes, the worker writes its report to standard
// error, so the parent holds the final report before it can read the
// response that lets it stop the worker.
func serveWorker(ctx context.Context) error {
	lookup, err := experiment.LookupFromSpec(ctx, os.Getenv(experiment.WorkerSpecEnv))
	if err != nil {
		return err
	}
	var rep workerReport
	in := &countingReader{r: os.Stdin, n: &rep.BytesIn}
	out := &countingWriter{w: os.Stdout, before: func(n int) {
		rep.BytesOut += int64(n)
		rep.PeakRSSMB, _ = peakRSSMB()
		fmt.Fprintf(os.Stderr, "%s%s %d %d %d %g\n", statsPrefix, obs.ProcessToken(),
			rep.BytesIn, rep.BytesOut, rep.GoldenNs, rep.PeakRSSMB)
	}}
	timed := func(name string) (dispatch.Worker, error) {
		t0 := time.Now()
		w, err := lookup(name)
		rep.GoldenNs += time.Since(t0).Nanoseconds()
		return w, err
	}
	return dispatch.Serve(ctx, timed, in, out)
}

type countingReader struct {
	r io.Reader
	n *int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += int64(n)
	return n, err
}

type countingWriter struct {
	w      io.Writer
	before func(n int)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.before(len(p))
	return c.w.Write(p)
}

// workerStats receives the standard error of every worker process and
// keeps the last report of each; other lines pass through to the
// benchmark's standard error.
type workerStats struct {
	mu      sync.Mutex
	partial bytes.Buffer
	last    map[string]workerReport // by worker process token
}

func newWorkerStats() *workerStats { return &workerStats{last: make(map[string]workerReport)} }

func (s *workerStats) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.partial.Write(p)
	for {
		line, err := s.partial.ReadString('\n')
		if err != nil {
			// Keep the incomplete tail for the next write.
			rest := []byte(line)
			s.partial.Reset()
			s.partial.Write(rest)
			return len(p), nil
		}
		if !strings.HasPrefix(line, statsPrefix) {
			os.Stderr.WriteString(line)
			continue
		}
		var token string
		var r workerReport
		if _, err := fmt.Sscan(strings.TrimPrefix(line, statsPrefix), &token, &r.BytesIn, &r.BytesOut, &r.GoldenNs, &r.PeakRSSMB); err == nil {
			s.last[token] = r
		}
	}
}

// peakMB is the largest worker peak resident set reported so far.
func (s *workerStats) peakMB() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var peak float64
	for _, r := range s.last {
		peak = math.Max(peak, r.PeakRSSMB)
	}
	return peak
}

// take returns the reports gathered since the last call and forgets
// them.
func (s *workerStats) take() []workerReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]workerReport, 0, len(s.last))
	for _, r := range s.last {
		out = append(out, r)
	}
	s.last = make(map[string]workerReport)
	return out
}

// spawnTime is the time from starting a worker process to reading its
// hello frame: process start, runtime start-up and spec decoding.
func spawnTime(command, env []string) (time.Duration, error) {
	cmd := execCommand(command, env)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	// A frame is a 4-byte length then the body; the first is the hello.
	_, rerr := bufio.NewReader(stdout).Peek(5)
	d := time.Since(t0)
	stdin.Close()
	werr := cmd.Wait()
	if rerr != nil {
		return 0, fmt.Errorf("reading worker hello: %w", rerr)
	}
	if werr != nil {
		return 0, fmt.Errorf("worker exit: %w", werr)
	}
	return d, nil
}
