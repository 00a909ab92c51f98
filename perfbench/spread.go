package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSpread runs one workload k times in child processes, with seeds
// 1..k, and prints per metric the median, the quartiles (as Python's
// statistics.quantiles(values, n=4) gives them) and their distance as a
// share of the median, then the failed share of every run. It is what
// the bounds in BENCHMARK.json are set and re-checked with.
func runSpread(name string, k, seconds int, trace, short bool, work string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	var order []string
	correct := true
	var failedShares []string
	for seed := 1; seed <= k; seed++ {
		args := []string{"--workload", name, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.Itoa(seconds), "--work", work, "--trace", "0"}
		if trace {
			args[len(args)-1] = "1"
		}
		if short {
			args = append(args, "--short")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", seed, lines[len(lines)-1])
		correct = correct && r.Correct
		failedShares = append(failedShares, fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
		for _, m := range append(endToEnd, perLayer...) {
			if v, ok := r.Metrics[m.name]; ok {
				if _, seen := units[m.name]; !seen {
					order = append(order, m.name)
					units[m.name] = v.Unit
				}
				vals[m.name] = append(vals[m.name], v.Value)
			}
		}
	}
	fmt.Printf("workload %s, %d runs of %d s, correct %v, failed %v\n", name, k, seconds, correct, failedShares)
	fmt.Printf("%-26s %-6s %14s %14s %14s %9s\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
	for _, n := range order {
		v := vals[n]
		if len(v) < 2 {
			continue
		}
		q := quartiles(v)
		rel := 0.0
		if q[1] != 0 {
			rel = (q[2] - q[0]) / q[1]
		}
		fmt.Printf("%-26s %-6s %14.6g %14.6g %14.6g %8.2f%%\n", n, units[n], q[0], q[1], q[2], 100*rel)
	}
	return nil
}
