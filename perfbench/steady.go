package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runsPerSet is how many runs, each on its own seed, make one set of
// the steadiness check.
const runsPerSet = 5

// steady runs two sets of runs of the same code, each run on its own
// seed, and prints every end-to-end metric's median and quartiles per
// set. The sets agree when each metric's quartile spread is within its
// bound and the second median is not worse than the first by more
// than the bound. It reads BENCHMARK.json from the working directory;
// --workload picks one workload, listed there or not. It fails when
// the sets disagree.
func steady(only string, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	if only != "" {
		names = []string{only}
	}
	agree := true
	for _, name := range names {
		// sets[set][metric] holds one value per run.
		sets := [2]map[string][]float64{{}, {}}
		for set := range sets {
			for r := 0; r < runsPerSet; r++ {
				seed := int64(100*(set+1) + r)
				res, err := runOnce(self, name, seed, seconds)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d ops failed", name, seed, res.Failed, res.Attempted)
				}
				fmt.Printf("%-15s set %d seed %d:", name, set+1, seed)
				for _, e := range spec.EndToEnd {
					v := res.Metrics[e.Name].Value
					sets[set][e.Name] = append(sets[set][e.Name], v)
					fmt.Printf(" %s=%.6g", e.Name, v)
				}
				fmt.Println()
			}
		}
		for _, e := range spec.EndToEnd {
			var med [2]float64
			for set := range sets {
				q1, md, q3 := quartiles(sets[set][e.Name])
				med[set] = md
				fmt.Printf("%-15s %-14s set %d: median %-12.6g q1 %-12.6g q3 %-12.6g spread %5.2f%% (bound %g%%)\n",
					name, e.Name, set+1, md, q1, q3, 100*(q3-q1)/md, 100*e.Bound)
				if (q3-q1)/md > e.Bound {
					agree = false
				}
			}
			worse := (med[1] - med[0]) / med[0]
			if e.Better == "higher" {
				worse = -worse
			}
			fmt.Printf("%-15s %-14s second median %+.2f%% worse than the first\n", name, e.Name, 100*worse)
			if worse > e.Bound {
				agree = false
			}
		}
	}
	fmt.Println("agree:", agree)
	if !agree {
		return fmt.Errorf("the two sets disagree beyond the benchmark's bounds")
	}
	return nil
}

// runOnce runs the benchmark once in a child process and parses its
// last output line.
func runOnce(self, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}
