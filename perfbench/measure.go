package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// unit is one short, deterministic call into a public entry point of
// the program. The estimator repeats it and keeps its fastest
// repetition.
type unit struct {
	name string
	// ops is how many injection runs (or placement queries) one call
	// performs.
	ops int
	// prepare, when set, runs untimed before every call (it rebuilds
	// state the call consumes, such as a warm solver cache).
	prepare func() error
	// call performs the unit and returns its output, which is digested
	// after the clock stops.
	call func(ctx context.Context) (any, error)
	// want, when non-empty, is the digest the output must match: the
	// stored reference at the default seed, or the output of another
	// executor that must agree byte for byte.
	want string
}

// unitStats is what the estimator keeps per unit.
type unitStats struct {
	reps    int
	minWall time.Duration
	// cpuAtMin is the CPU time of the repetition with the minimum wall
	// time. A separate CPU minimum would pick the kernel's undercounts:
	// a thread running on the other CPU is accounted only at its next
	// tick or switch.
	cpuAtMin   time.Duration
	samples    []time.Duration
	digest     string
	failed     bool
	failReason string
}

// loopResult is one timed pass of the round-robin loop over a unit
// list.
type loopResult struct {
	units     []unit
	stats     []unitStats
	attempted int
	failed    int
}

// cpuNow returns the CPU time of this process (all its threads, from
// the kernel's scheduler clock) plus that of its reaped children.
// Children are reaped inside the call that started them, so their CPU
// lands in that call's delta. getrusage alone is too coarse here: it
// reports this process's time only to the last tick split.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	var kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return time.Duration(ts.Nano()) + tv(kids.Utime) + tv(kids.Stime)
}

// peakRSSMB returns this process's peak resident set in MiB, from
// /proc (VmHWM). getrusage is no use here: a child's figure starts at
// its parent's size, which the kernel carries over from before exec.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runLoop cycles through the units round-robin until the budget is
// spent (every unit runs at least minReps times). A unit whose call
// errors or whose digest differs from its expected digest, or from its
// own first repetition, is marked failed; its ops count as failed.
// When setup is set, one set-up pass follows every cycle, so set-up is
// sampled across the whole run like the units are; a failed pass ends
// the loop and stays in setup.err.
func runLoop(ctx context.Context, units []unit, budget time.Duration, minReps int, setup *setupClock) *loopResult {
	res := &loopResult{units: units, stats: make([]unitStats, len(units))}
	deadline := time.Now().Add(budget)
	for rep := 0; ; rep++ {
		if rep >= minReps && time.Now().After(deadline) {
			break
		}
		for i := range units {
			u, st := &units[i], &res.stats[i]
			if st.failed {
				continue
			}
			if u.prepare != nil {
				if err := u.prepare(); err != nil {
					st.fail(fmt.Sprintf("prepare: %v", err))
					continue
				}
			}
			c0 := cpuNow()
			t0 := time.Now()
			out, err := u.call(ctx)
			wall := time.Since(t0)
			cpu := cpuNow() - c0
			res.attempted += u.ops
			var d string
			if err == nil {
				d, err = digest(out)
			}
			switch {
			case err != nil:
				st.fail(err.Error())
			case u.want != "" && d != u.want:
				st.fail(fmt.Sprintf("output digest %s, want %s", d, u.want))
			case st.reps > 0 && d != st.digest:
				st.fail(fmt.Sprintf("output digest %s changed from %s between repetitions", d, st.digest))
			}
			if st.failed {
				res.failed += u.ops
				continue
			}
			st.digest = d
			if st.reps == 0 || wall < st.minWall {
				st.minWall = wall
				st.cpuAtMin = cpu
			}
			st.reps++
			st.samples = append(st.samples, wall)
		}
		if setup != nil && setup.pass() != nil {
			break
		}
	}
	return res
}

func (st *unitStats) fail(reason string) {
	st.failed = true
	st.failReason = reason
}

// ops is the op count of the units that were measured: a unit that
// failed on its first call has no time to add.
func (r *loopResult) ops() int {
	n := 0
	for i, u := range r.units {
		if r.stats[i].reps > 0 {
			n += u.ops
		}
	}
	return n
}

// minWall is the sum of the per-unit minimum wall times.
func (r *loopResult) minWall() time.Duration {
	var d time.Duration
	for _, st := range r.stats {
		d += st.minWall
	}
	return d
}

// cpuAtMin is the sum over units of the CPU time of each unit's
// fastest repetition.
func (r *loopResult) cpuAtMin() time.Duration {
	var d time.Duration
	for _, st := range r.stats {
		d += st.cpuAtMin
	}
	return d
}

// opsPerSec is the unit list's ops over the sum of unit minima.
func (r *loopResult) opsPerSec() float64 {
	return ratio(int64(r.ops()), r.minWall().Nanoseconds()) * 1e9
}

// rawOpsPerSec is the mean-based throughput over every repetition — a
// host diagnostic, not a metric to compare commits by.
func (r *loopResult) rawOpsPerSec() float64 {
	var ops int
	var wall time.Duration
	for i, st := range r.stats {
		ops += r.units[i].ops * st.reps
		for _, s := range st.samples {
			wall += s
		}
	}
	return float64(ops) / wall.Seconds()
}

// slowShare is the share of repetitions slower than 1.25× their unit's
// minimum: how much of the run the host spent in its slow mode.
func (r *loopResult) slowShare() float64 {
	var slow, all int
	for _, st := range r.stats {
		for _, s := range st.samples {
			all++
			if float64(s) > 1.25*float64(st.minWall) {
				slow++
			}
		}
	}
	if all == 0 {
		return 0
	}
	return float64(slow) / float64(all)
}

// minReps and maxReps bound the repetition counts of the units.
func (r *loopResult) minReps() int {
	n := math.MaxInt
	for _, st := range r.stats {
		n = min(n, st.reps)
	}
	return n
}

func (r *loopResult) maxReps() int {
	n := 0
	for _, st := range r.stats {
		n = max(n, st.reps)
	}
	return n
}

// failures lists the failed units with their reasons.
func (r *loopResult) failures() []string {
	var out []string
	for i, st := range r.stats {
		if st.failed {
			out = append(out, r.units[i].name+": "+st.failReason)
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// minOf runs fn reps times and returns its fastest wall time.
func minOf(reps int, fn func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best, nil
}

// item is one timed set-up step.
type item struct {
	name string
	fill func() error
}

// setupClock keeps each set-up item's minimum wall time over passes.
// A workload's set-up time is the sum of those minima.
type setupClock struct {
	items  []item
	reset  func()
	mins   []time.Duration
	passes int
	// err is the first failed pass; a failed pass ends the sampling.
	err error
}

// pass runs reset and then every item once, in order, so that a
// change of host speed hits all items alike.
func (c *setupClock) pass() error {
	if c.err != nil {
		return c.err
	}
	if c.mins == nil {
		c.mins = make([]time.Duration, len(c.items))
	}
	if c.reset != nil {
		c.reset()
	}
	for i, it := range c.items {
		t0 := time.Now()
		if err := it.fill(); err != nil {
			c.err = fmt.Errorf("set-up %s: %w", it.name, err)
			return c.err
		}
		if d := time.Since(t0); c.passes == 0 || d < c.mins[i] {
			c.mins[i] = d
		}
	}
	c.passes++
	return nil
}

// total is the sum of the per-item minima.
func (c *setupClock) total() time.Duration {
	var sum time.Duration
	for _, d := range c.mins {
		sum += d
	}
	return sum
}

// setupTime runs reps set-up passes.
func setupTime(items []item, reps int, reset func()) (*setupClock, error) {
	c := &setupClock{items: items, reset: reset}
	for r := 0; r < reps; r++ {
		if err := c.pass(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// quartiles returns the first quartile, median and third quartile of
// xs with the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
