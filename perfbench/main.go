// Command perfbench is the repository benchmark. It runs one named workload
// against the colorful stack from a single process, checks every answer
// against a model kept apart from the program, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as the last line of its
// standard output:
//
//	perfbench -workload tpcw-read -seed 1 -seconds 10 -trace 0
//
// With -steady N it instead runs the workload N times, each with another
// seed, in child processes, and prints each metric's median and quartiles.
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadDef names a workload and the function that runs it: set-up, the
// measured phase, and (when traced) the direct per-layer measurements. The
// function returns an error only when the run could not complete; a wrong
// answer is recorded in r and reported through the result's "correct" field.
// Why each workload exists is in BENCHMARK.json and README.md.
type workloadDef struct {
	name string
	run  func(r *runState) error
}

var workloads = []workloadDef{
	{"tpcw-read", runTPCW},
	{"catalog-mixed", runMixed},
	{"catalog-ingest", runIngest},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run: tpcw-read, catalog-mixed or catalog-ingest")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds (whole rounds are run)")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	steady := flag.Int("steady", 0, "run the workload this many times with seeds 1..N in child processes and print medians and quartiles")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := runSteady(w.name, *steady, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runOnce(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOnce runs one workload. Untraced, it reports the end-to-end metrics.
// Traced, it first repeats the untraced run (so the tracing overhead can be
// quoted against it), then runs the workload again with tracing on and
// reports the per-layer metrics.
func runOnce(w workloadDef, seed int64, measure time.Duration, traced bool) (*result, error) {
	workRoot := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	fmt.Printf("host: GOMAXPROCS=%d NumCPU=%d %s %s/%s; durable commits fsync each commit (the default flush policy)\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	plain := newRunState(w.name, seed, measure, false, filepath.Join(dir, "plain"))
	if err := w.run(plain); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	plain.printE2E(os.Stdout, "")
	if !traced {
		return plain.result(e2eMetrics, plain.e2e), nil
	}

	tr := newRunState(w.name, seed, measure, true, filepath.Join(dir, "traced"))
	if err := w.run(tr); err != nil {
		return nil, fmt.Errorf("%s (traced): %w", w.name, err)
	}
	tr.printE2E(os.Stdout, "traced ")
	printOverhead(os.Stdout, plain, tr)
	tr.printLayers(os.Stdout)
	spanFile := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.spans.writeFile(spanFile); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d operations written to %s\n", tr.spans.ops(), spanFile)
	res := tr.result(layerMetrics, tr.layerValues())
	// The traced result speaks for both runs.
	res.Correct = plain.correct() && tr.correct()
	return res, nil
}

// printOverhead quotes the tracing overhead: each end-to-end metric of the
// traced run against the untraced run of the same seed.
func printOverhead(out *os.File, plain, traced *runState) {
	for _, m := range e2eMetrics {
		a, b := plain.e2e[m.name], traced.e2e[m.name]
		if a == 0 {
			continue
		}
		fmt.Fprintf(out, "trace-overhead %-12s untraced %.4g traced %.4g %s (%+.1f%%)\n",
			m.name, a, b, m.unit, 100*(b-a)/a)
	}
}

func (r *runState) result(defs []metricDef, values map[string]float64) *result {
	res := &result{
		Correct:   r.correct(),
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res
}

func (r *runState) printE2E(out *os.File, prefix string) {
	names := make([]string, 0, len(r.e2e))
	for k := range r.e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s seed=%d attempted=%d failed=%d correct=%v:", prefix, r.workload, r.seed,
		r.attempted.Load(), r.failed.Load(), r.correct())
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%.4g", k, r.e2e[k])
	}
	fmt.Fprintln(out, b.String())
}
