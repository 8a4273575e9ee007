package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Progress renders a campaign's record in Live as a single status line
// (normally on stderr):
//
//	[permeability] shards 12/16 runs 480/640 75.0% 1893 runs/s eta 0s retries 2
//
// It keeps no counts of its own: Telemetry's campaign entry points
// update the LiveCampaign and then ask the line to redraw. Rendering is
// rate-limited (default ~1 Hz) and happens on the updating goroutine —
// there is no background ticker, so an idle process writes nothing.
// All methods are nil-safe no-ops.
type Progress struct {
	mu       sync.Mutex
	w        io.Writer
	interval time.Duration
	wrote    bool

	campaign   atomic.Pointer[LiveCampaign] // the running campaign, or the last one to end
	lastRender atomic.Int64                 // ns since the campaign's start of the last render
	stopped    atomic.Bool
}

// NewProgress builds a progress line writing to w. interval <= 0
// selects one second.
func NewProgress(w io.Writer, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = time.Second
	}
	return &Progress{w: w, interval: interval}
}

// show switches the line to campaign c.
func (p *Progress) show(c *LiveCampaign) {
	if p == nil {
		return
	}
	p.lastRender.Store(0)
	p.campaign.Store(c)
}

// Stop renders a final line (if a campaign was ever shown) and
// terminates it with a newline. Further updates are ignored.
func (p *Progress) Stop() {
	if p == nil || !p.stopped.CompareAndSwap(false, true) {
		return
	}
	p.update(true)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wrote {
		fmt.Fprintln(p.w)
	}
}

// update redraws the line when the rate limit allows (or when forced
// by Stop).
func (p *Progress) update(force bool) {
	if p == nil || (p.stopped.Load() && !force) {
		return
	}
	c := p.campaign.Load()
	if c == nil {
		return
	}
	now := time.Since(c.startedAt).Nanoseconds()
	last := p.lastRender.Load()
	if !force && now-last < p.interval.Nanoseconds() {
		return
	}
	if !p.lastRender.CompareAndSwap(last, now) {
		return // another goroutine is rendering
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	done, total := c.runsDone.Load(), c.runsTotal
	elapsed := time.Since(c.startedAt).Seconds()
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
		c.name, c.shardsDone.Load(), c.shardsTotal.Load(), done, total, pct, rate, eta, c.retries.Load())
	// \r + trailing-space pad keeps a shrinking line from leaving
	// stale characters on the terminal.
	fmt.Fprintf(p.w, "\r%-100s", line)
	p.wrote = true
}
