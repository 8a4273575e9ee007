package campaign

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Executor schedules the n independent runs of a campaign plan. Run
// invokes fn(i) at most once for every i in [0, n) and returns the
// first error (runs already in flight finish; queued runs are
// abandoned). keys, when non-nil, holds run i's shard key at keys[i];
// executors without a sharding notion ignore it. Implementations must
// recover panics out of fn into a *PanicError, so one poisoned run
// produces a diagnostic instead of killing the process.
type Executor interface {
	// Name identifies the executor in logs and test failures.
	Name() string
	Run(ctx context.Context, n int, keys []uint64, fn func(i int) error) error
}

// PanicError is a panic recovered from one campaign run.
type PanicError struct {
	// Index is the plan index of the run that panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("run panicked: %v\n%s", e.Value, e.Stack)
}

// Unwrap exposes the panic value as the error's cause when the run
// panicked with an error (panic(err) is common in library code), so
// engine diagnostics pass errors.Is/errors.As checks against the
// underlying error. Panics with non-error values have no cause.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// call invokes fn(i), converting a panic into a *PanicError.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// DefaultShards is the shard count a Sharded executor with Shards == 0
// uses. It is a fixed constant — deliberately not derived from Workers
// or GOMAXPROCS — so the plan→shard partition of a campaign is stable
// across machines and worker counts.
const DefaultShards = 16

// Sharded partitions the plan into deterministic shards and executes
// them on a bounded worker pool. Run i lands in shard keys[i] % Shards
// (plan index when the campaign assigns no keys), so the partition
// depends only on the plan and the shard count — never on Workers —
// and a shard is a self-contained unit that could be dispatched to a
// remote worker without changing any result. Within a shard, runs
// execute in ascending plan order, so Sharded{Workers: 1, Shards: 1}
// is the serial reference every executor must reproduce byte-for-byte.
type Sharded struct {
	// Workers bounds how many shards execute concurrently (>= 1).
	Workers int
	// Shards is the partition width (0 selects DefaultShards).
	Shards int
}

func (s Sharded) Name() string {
	return fmt.Sprintf("sharded(workers=%d,shards=%d)", s.Workers, s.shards())
}

func (s Sharded) shards() int {
	if s.Shards < 1 {
		return DefaultShards
	}
	return s.Shards
}

func (s Sharded) Run(ctx context.Context, n int, keys []uint64, fn func(i int) error) error {
	buckets := Partition(n, keys, s.shards())
	tel := obs.Active()
	tel.PlanShards(len(buckets), false)
	parent := obs.SpanFromContext(ctx)
	return RunSlots(ctx, buckets, s.Workers, func(ctx context.Context, b Bucket) error {
		var shardStart time.Time
		var sp *obs.Span
		if tel != nil {
			shardStart = time.Now()
			sp = parent.Child("shard", map[string]string{
				"shard": strconv.Itoa(b.ID),
				"runs":  strconv.Itoa(len(b.Runs)),
			})
		}
		var err error
		for _, i := range b.Runs {
			if err = ctx.Err(); err == nil {
				err = call(fn, i)
			}
			if err != nil {
				break
			}
		}
		sp.End()
		if err != nil || tel == nil {
			return err
		}
		wall := time.Since(shardStart)
		tel.FinishShard(obs.ShardStatus{
			ID: strconv.Itoa(b.ID), Worker: "local",
			State: "done", Runs: len(b.Runs),
			WallMs: wall.Milliseconds(), ExecMs: wall.Milliseconds(),
		}, wall, false)
		return nil
	})
}

// Bucket is one shard of a partitioned plan: its bucket number and the
// plan indices that landed in it, ascending.
type Bucket struct {
	ID   int
	Runs []int
}

// Partition buckets the n runs of a plan by key: run i lands in bucket
// keys[i] % shards (its plan index when keys is nil). Appending in
// index order keeps each bucket's runs ascending, so a shard replays
// identically under any executor, in process or dispatched. Empty
// buckets are dropped.
func Partition(n int, keys []uint64, shards int) []Bucket {
	runs := make([][]int, shards)
	for i := 0; i < n; i++ {
		k := uint64(i)
		if keys != nil {
			k = keys[i]
		}
		b := int(k % uint64(shards))
		runs[b] = append(runs[b], i)
	}
	var buckets []Bucket
	for b, r := range runs {
		if len(r) > 0 {
			buckets = append(buckets, Bucket{ID: b, Runs: r})
		}
	}
	return buckets
}

// RunSlots feeds items, in order, to at most slots concurrent calls of
// run and stops at the first error: the context the other calls see is
// canceled, unfed items are abandoned, and that first error is
// returned (the parent context's error when it ended first).
func RunSlots[T any](ctx context.Context, items []T, slots int, run func(ctx context.Context, item T) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
	)
	work := make(chan T)
	var wg sync.WaitGroup
	slots = max(1, min(slots, len(items)))
	wg.Add(slots)
	for w := 0; w < slots; w++ {
		go func() {
			defer wg.Done()
			for it := range work {
				if ctx.Err() != nil {
					return
				}
				if err := run(ctx, it); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
						cancel()
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
feed:
	for _, it := range items {
		select {
		case work <- it:
		case <-ctx.Done():
			// After cancellation no slot accepts another item, so
			// iterating the remainder only spins.
			break feed
		}
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
