package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Progress renders a single live status line (normally on stderr):
//
//	[permeability] shards 12/16 runs 480/640 75.0% 1893 runs/s eta 0s retries 2
//
// Updates from any goroutine are cheap atomic stores; rendering is
// rate-limited (default ~1 Hz) and happens on the updating goroutine —
// there is no background ticker, so an idle process writes nothing.
// All methods are nil-safe no-ops.
type Progress struct {
	mu       sync.Mutex
	w        io.Writer
	interval time.Duration
	campaign string
	start    time.Time
	wrote    bool

	lastRender atomic.Int64 // ns since start of last render
	runsTotal  atomic.Int64
	runsDone   atomic.Int64
	shards     atomic.Int64
	shardsDone atomic.Int64
	retries    atomic.Int64
	stopped    atomic.Bool
}

// NewProgress builds a progress line writing to w. interval <= 0
// selects one second.
func NewProgress(w io.Writer, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = time.Second
	}
	return &Progress{w: w, interval: interval, start: time.Now()}
}

// StartCampaign resets the line for a new campaign of n planned runs.
func (p *Progress) StartCampaign(name string, runs int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.campaign = name
	p.start = time.Now()
	p.mu.Unlock()
	p.runsTotal.Store(int64(runs))
	p.runsDone.Store(0)
	p.shards.Store(0)
	p.shardsDone.Store(0)
	p.lastRender.Store(0)
}

// SetShards records the shard count of the current campaign.
func (p *Progress) SetShards(n int) {
	if p == nil {
		return
	}
	p.shards.Store(int64(n))
	p.maybeRender(false)
}

// RunDone counts n completed runs.
func (p *Progress) RunDone(n int) {
	if p == nil {
		return
	}
	p.runsDone.Add(int64(n))
	p.maybeRender(false)
}

// ShardDone counts one completed shard.
func (p *Progress) ShardDone() {
	if p == nil {
		return
	}
	p.shardsDone.Add(1)
	p.maybeRender(false)
}

// Retry counts one re-dispatched shard.
func (p *Progress) Retry() {
	if p == nil {
		return
	}
	p.retries.Add(1)
	p.maybeRender(false)
}

// Stop renders a final line (if anything was ever rendered) and
// terminates it with a newline. Further updates are ignored.
func (p *Progress) Stop() {
	if p == nil || !p.stopped.CompareAndSwap(false, true) {
		return
	}
	p.maybeRender(true)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wrote {
		fmt.Fprintln(p.w)
	}
}

// maybeRender redraws the line when the rate limit allows (or when
// forced by Stop).
func (p *Progress) maybeRender(force bool) {
	if p.stopped.Load() && !force {
		return
	}
	now := time.Since(p.start).Nanoseconds()
	last := p.lastRender.Load()
	if !force && now-last < p.interval.Nanoseconds() {
		return
	}
	if !p.lastRender.CompareAndSwap(last, now) {
		return // another goroutine is rendering
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	done, total := p.runsDone.Load(), p.runsTotal.Load()
	elapsed := time.Since(p.start).Seconds()
	var rate float64
	if elapsed > 0 {
		rate = float64(done) / elapsed
	}
	eta := "?"
	if rate > 0 && total > done {
		eta = (time.Duration(float64(total-done) / rate * float64(time.Second))).Round(time.Second).String()
	} else if done >= total {
		eta = "0s"
	}
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(done) / float64(total)
	}
	line := fmt.Sprintf("[%s] shards %d/%d runs %d/%d %.1f%% %.0f runs/s eta %s retries %d",
		p.campaign, p.shardsDone.Load(), p.shards.Load(), done, total, pct, rate, eta, p.retries.Load())
	// \r + trailing-space pad keeps a shrinking line from leaving
	// stale characters on the terminal.
	fmt.Fprintf(p.w, "\r%-100s", line)
	p.wrote = true
}
