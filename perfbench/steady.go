package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs one workload n times, seeds 1..n, each in a child process
// of this binary, and prints every metric's median, quartiles and spread
// (the distance between the quartiles as a share of the median), plus the
// failed share of each run. Quartiles follow Python's
// statistics.quantiles(values, n=4), the exclusive method.
func runSteady(name string, n, seconds int, traced bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for seed := 1; seed <= n; seed++ {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.Itoa(seed),
			"-seconds", strconv.Itoa(seconds), "-trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", seed, res.Correct, res.Attempted, res.Failed)
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-30s %12s %12s %12s %8s  (%s, %d runs)\n", "metric", "q1", "median", "q3", "spread", name, n)
	for _, k := range names {
		q1, med, q3 := quartiles(values[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-30s %12.5g %12.5g %12.5g %7.1f%%  %s\n", k, q1, med, q3, 100*spread, units[k])
	}
	return nil
}

// quartiles is statistics.quantiles(xs, n=4) (method "exclusive"); it needs
// at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	if len(d) < 2 {
		if len(d) == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
