// Command perfbench is the repository's benchmark harness. It calls the
// program's public entry points directly and times every call from
// outside, so the program needs no instrumentation of its own.
//
// Each workload is a fixed list of short deterministic units generated
// from the seed. The harness cycles through the list for --seconds and
// estimates each unit's cost as its fastest repetition; a workload's
// time is the sum of those minima. See README.md in this directory.
//
//	bash perfbench/run.sh --workload table1-serial --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --mode steady --seconds 15
//	bash perfbench/run.sh --mode reference --seed 1 > perfbench/reference.json
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// defaultSeed is the seed the stored reference digests belong to.
const defaultSeed = 1

//go:embed reference.json
var referenceJSON []byte

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	mode := flag.String("mode", "run", "run | steady | reference | worker")
	name := flag.String("workload", "", "workload: table1-serial, fig3-sharded, fig3-subproc or place-analytic")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()

	ctx := context.Background()
	var err error
	switch *mode {
	case "worker":
		err = serveWorker(ctx)
	case "run":
		err = run(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	case "steady":
		err = steady(*name, *seconds)
	case "reference":
		err = writeReference(ctx)
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// references returns the stored digests of the default seed.
func references(seed int64) (map[string]string, error) {
	ref := map[string]string{}
	if seed != defaultSeed {
		return ref, nil
	}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// prepared builds a workload, times its cold set-up and runs its
// cross-checks, leaving every cache filled for the timed loop. The
// returned clock holds the set-up passes made so far.
func prepared(ctx context.Context, name string, seed int64, ref map[string]string) (*workload, *setupClock, error) {
	w, err := buildWorkload(ctx, name, seed, ref)
	if err != nil {
		return nil, nil, err
	}
	setup, err := setupTime(w.setup, setupPasses, w.reset)
	if err != nil {
		return nil, nil, err
	}
	return w, setup, w.crossCheck(ctx)
}

func run(ctx context.Context, name string, seed int64, budget time.Duration, traced bool) error {
	if name == "" {
		return fmt.Errorf("--workload is required")
	}
	ref, err := references(seed)
	if err != nil {
		return err
	}
	w, setup, err := prepared(ctx, name, seed, ref)
	if err != nil {
		return err
	}
	var res *loopResult
	metrics := map[string]metric{}
	if traced {
		res, err = tracedRun(ctx, w, seed, budget, metrics)
		if err != nil {
			return err
		}
	} else {
		res = runLoop(ctx, w.units, budget, 3, setup)
		if setup.err != nil {
			return setup.err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		if w.stats != nil {
			// The workers run side by side, each up to its peak.
			rss += fig3Workers * w.stats.peakMB()
		}
		metrics["setup_s"] = metric{setup.total().Seconds(), "s"}
		metrics["ops_per_s"] = metric{res.opsPerSec(), "1/s"}
		metrics["cpu_ms_per_op"] = metric{ratio(res.cpuAtMin().Nanoseconds(), int64(res.ops())) / 1e6, "ms"}
		metrics["peak_rss_mb"] = metric{rss, "MB"}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d units, %d ops, sum of minima %.3f ms, %d-%d repetitions, slow share %.2f, %d set-up passes\n",
			w.name, len(w.units), res.ops(), ms(res.minWall()), res.minReps(), res.maxReps(), res.slowShare(), setup.passes)
	}
	for _, f := range res.failures() {
		fmt.Fprintln(os.Stderr, "perfbench: failed unit", f)
	}
	out, err := json.Marshal(result{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// writeReference prints the output digests of every unit at the default
// seed, after checking that the cross-checked units agree.
func writeReference(ctx context.Context) error {
	ref := map[string]string{}
	for _, name := range workloadNames {
		w, _, err := prepared(ctx, name, defaultSeed, nil)
		if err != nil {
			return err
		}
		for _, u := range w.units {
			if u.prepare != nil {
				if err := u.prepare(); err != nil {
					return err
				}
			}
			out, err := u.call(ctx)
			if err != nil {
				return fmt.Errorf("%s: %w", u.name, err)
			}
			d, err := digest(out)
			if err != nil {
				return err
			}
			if u.want != "" && d != u.want {
				return fmt.Errorf("%s: digest %s disagrees with its cross-check %s", u.name, d, u.want)
			}
			ref[u.name] = d
		}
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// execCommand builds a child process command with extra environment.
func execCommand(argv, env []string) *exec.Cmd {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), env...)
	return cmd
}
