package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// squares is a minimal campaign: plan n ints, square each, sum them.
// ShardKey groups runs by run%3, mimicking case-keyed sharding.
type squares struct {
	n       int
	planErr error
	// execute hook lets tests inject failures per index.
	fail func(i int) error
}

func (s *squares) Name() string { return "squares" }

func (s *squares) Plan() ([]int, error) {
	if s.planErr != nil {
		return nil, s.planErr
	}
	plan := make([]int, s.n)
	for i := range plan {
		plan[i] = i
	}
	return plan, nil
}

func (s *squares) Execute(ctx context.Context, run, index int) (int, error) {
	if s.fail != nil {
		if err := s.fail(index); err != nil {
			return 0, err
		}
	}
	return run * run, nil
}

func (s *squares) Reduce(plan, results []int) (int, error) {
	sum := 0
	for _, r := range results {
		sum += r
	}
	return sum, nil
}

func (s *squares) ShardKey(run, index int) uint64 { return uint64(run % 3) }

func (s *squares) Describe(run, index int) string {
	return fmt.Sprintf("run=%d", run)
}

func executors() []Executor {
	return []Executor{
		Sharded{Workers: 1, Shards: 1},
		Sharded{Workers: 2, Shards: 2},
		Sharded{Workers: 8, Shards: 8},
		Sharded{Workers: 8}, // DefaultShards
		Sharded{Workers: 3, Shards: 100},
	}
}

func TestExecutorsAgree(t *testing.T) {
	want := 0
	for i := 0; i < 100; i++ {
		want += i * i
	}
	for _, ex := range executors() {
		got, err := Execute[int, int, int](context.Background(), &squares{n: 100}, ex, nil)
		if err != nil {
			t.Fatalf("%s: %v", ex.Name(), err)
		}
		if got != want {
			t.Errorf("%s: sum = %d, want %d", ex.Name(), got, want)
		}
	}
}

func TestExecutorRunsEveryIndexOnce(t *testing.T) {
	for _, ex := range executors() {
		n := 250
		var hits [250]int32
		err := ex.Run(context.Background(), n, nil, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", ex.Name(), err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Errorf("%s: index %d ran %d times", ex.Name(), i, h)
			}
		}
	}
}

func TestShardPartitionIgnoresWorkers(t *testing.T) {
	// The shard a run lands in is key % shards: identical membership for
	// any worker count. Record each run's executing shard via the order
	// guarantee (runs of one shard execute in ascending index order on
	// one goroutine) — here simply assert both worker counts execute all
	// runs and agree on results, with keys supplied.
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i * 7)
	}
	for _, workers := range []int{1, 4, 16} {
		var sum int64
		ex := Sharded{Workers: workers, Shards: 8}
		if err := ex.Run(context.Background(), len(keys), keys, func(i int) error {
			atomic.AddInt64(&sum, int64(i))
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := int64(63 * 64 / 2); sum != want {
			t.Errorf("workers=%d: sum = %d, want %d", workers, sum, want)
		}
	}
}

func TestPanicBecomesDiagnosticError(t *testing.T) {
	for _, ex := range executors() {
		c := &squares{n: 10, fail: func(i int) error {
			if i == 7 {
				panic("poisoned run")
			}
			return nil
		}}
		_, err := Execute[int, int, int](context.Background(), c, ex, nil)
		if err == nil {
			t.Fatalf("%s: panic did not surface as error", ex.Name())
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: error %v is not a PanicError", ex.Name(), err)
		}
		if pe.Index != 7 {
			t.Errorf("%s: panic index = %d, want 7", ex.Name(), pe.Index)
		}
		// The engine decorates with the campaign name and the run's
		// Describe output — the "which run failed" diagnostic.
		for _, want := range []string{"squares", "run 7", "run=7", "poisoned run"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q missing %q", ex.Name(), err, want)
			}
		}
	}
}

func TestPanicErrorUnwrapsErrorValues(t *testing.T) {
	cause := errors.New("panicked cause")
	for _, ex := range executors() {
		c := &squares{n: 5, fail: func(i int) error {
			if i == 2 {
				panic(cause)
			}
			return nil
		}}
		_, err := Execute[int, int, int](context.Background(), c, ex, nil)
		if !errors.Is(err, cause) {
			t.Errorf("%s: engine diagnostic does not unwrap to the panicked error: %v", ex.Name(), err)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: no PanicError in %v", ex.Name(), err)
		}
	}
	// Non-error panic values have no cause.
	if (&PanicError{Value: "not an error"}).Unwrap() != nil {
		t.Error("string panic value should not unwrap")
	}
}

func TestRunErrorCarriesDescription(t *testing.T) {
	boom := errors.New("boom")
	c := &squares{n: 5, fail: func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	}}
	_, err := Execute[int, int, int](context.Background(), c, Sharded{Workers: 1, Shards: 1}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap the run error", err)
	}
	for _, want := range []string{"squares", "run 3", "run=3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestCancellationStopsExecution(t *testing.T) {
	for _, ex := range executors() {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ex.Run(ctx, 10_000, nil, func(i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", ex.Name(), err)
		}
		if n := ran.Load(); n == 10_000 {
			t.Errorf("%s: cancellation did not stop the plan (all %d runs executed)", ex.Name(), n)
		}
	}
}

func TestPreCancelledContextRunsNothing(t *testing.T) {
	for _, ex := range executors() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int32
		err := ex.Run(ctx, 100, nil, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", ex.Name(), err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("%s: %d runs executed under a cancelled context", ex.Name(), n)
		}
	}
}

func TestPlanErrorAborts(t *testing.T) {
	planErr := errors.New("no plan")
	_, err := Execute[int, int, int](context.Background(), &squares{planErr: planErr}, Sharded{Workers: 1, Shards: 1}, nil)
	if !errors.Is(err, planErr) {
		t.Fatalf("err = %v, want plan error", err)
	}
}

func TestCollectorObservesThroughEngine(t *testing.T) {
	col := &Collector{}
	if _, err := Execute[int, int, int](context.Background(), &squares{n: 42}, Sharded{Workers: 1, Shards: 1}, col); err != nil {
		t.Fatal(err)
	}
	rows := col.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if rows[0].Campaign != "squares" || rows[0].Runs != 42 {
		t.Errorf("row = %+v, want campaign=squares runs=42", rows[0])
	}
}

func TestWriteBenchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rows := []Timing{NewTiming("c1", 100, 2*time.Second)}
	if rows[0].RunsPerSec != 50 {
		t.Fatalf("RunsPerSec = %v, want 50", rows[0].RunsPerSec)
	}
	cache := CacheStats{Size: 3, Hits: 7, Misses: 3}
	if err := WriteBench(path, 1, 8, rows, cache); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Seed        int64      `json:"seed"`
		Workers     int        `json:"workers"`
		Campaigns   []Timing   `json:"campaigns"`
		GoldenCache CacheStats `json:"golden_cache"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	// WriteBench derives the hit rate from the raw hit/miss counts.
	wantCache := cache
	wantCache.HitRate = 0.7
	if rep.Seed != 1 || rep.Workers != 8 || len(rep.Campaigns) != 1 || rep.GoldenCache != wantCache {
		t.Errorf("report = %+v", rep)
	}
	// Empty path and empty rows are no-ops.
	if err := WriteBench("", 1, 8, rows, cache); err != nil {
		t.Error(err)
	}
	if err := WriteBench(filepath.Join(t.TempDir(), "x.json"), 1, 8, nil, cache); err != nil {
		t.Error(err)
	}
}

// TestNilExecutorDefaultsToSerial pins the engine's fallback: the
// one-shard sharded executor.
func TestNilExecutorDefaultsToSerial(t *testing.T) {
	got, err := Execute[int, int, int](context.Background(), &squares{n: 4}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0+1+4+9 {
		t.Errorf("sum = %d", got)
	}
}
