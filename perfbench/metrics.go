package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"colorfulxml/internal/obs"
)

// metricDef names one reported metric and its unit. The lists below are the
// ones BENCHMARK.json declares; TestMetricListsMatchBenchmarkJSON keeps the
// two in step.
type metricDef struct {
	name string
	unit string
}

// e2eMetrics are reported by every workload: each is something a user of
// the database sees, and each is above 0 on a healthy run.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"read_qps", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
}

// layerMetrics come from the traced run. A metric that a workload does not
// exercise reads 0 with 0 samples there; README.md maps each one to the
// end-to-end metric and workload it should move.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"colorful.reads_cached", "count"},
		{"colorful.reads_compiled", "count"},
		{"colorful.reads_evaluator", "count"},
		{"colorful.refresh_ms", "ms"},
		{"colorful.build_refresh_ms", "ms"},
		{"colorful.snapshot_applies", "count"},
		{"colorful.snapshot_rebuilds", "count"},
		{"colorful.map_ms", "ms"},
		{"colorful.commit_ms", "ms"},
		{"colorful.write_p50_ms", "ms"},
		{"colorful.recovery_s", "s"},
		{"plan.compile_ms", "ms"},
		{"plan.cache_hit_ratio", "ratio"},
		{"plan.cache_invalidations", "count"},
	}
	for i := 1; i <= 16; i++ {
		defs = append(defs, metricDef{fmt.Sprintf("engine.exec_ms.TQ%d", i), "ms"})
	}
	return append(defs, []metricDef{
		{"engine.rows_per_result", "rows"},
		{"engine.batch_fill", "ratio"},
		{"pathexpr.parse_us", "us"},
		{"mcxquery.eval_ms", "ms"},
		{"storage.checkpoints", "count"},
		{"storage.checkpoint_write_ms", "ms"},
		{"storage.changes_applied", "count"},
		{"storage.open_durable_s", "s"},
		{"storage.reconstruct_s", "s"},
		{"storage.records_replayed", "count"},
		{"storage.changes_replayed", "count"},
		{"storage.load_ms", "ms"},
		{"storage.bytes_per_user_byte", "ratio"},
		{"storage.disk_mb", "MB"},
		{"wal.appends", "count"},
		{"wal.fsyncs", "count"},
		{"wal.bytes_per_commit", "bytes"},
		{"wal.sync_ms", "ms"},
		{"wire.bytes_per_read", "bytes"},
		{"wire.overhead_ms", "ms"},
		{"serialize.unmarshal_s", "s"},
		{"go.allocs_per_read", "count"},
		{"go.alloc_bytes_per_read", "bytes"},
		{"go.gc_pause_p99_ms", "ms"},
		{"go.heap_after_mb", "MB"},
	}...)
}()

// layerVal is one per-layer measurement and the number of samples behind it.
type layerVal struct {
	value   float64
	samples int
}

// runState carries one run of one workload: its settings, the operation
// counters, the answers that failed their checks, and the metrics measured.
type runState struct {
	workload string
	seed     int64
	measure  time.Duration
	traced   bool
	dir      string // scratch directory for this run's databases

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	problems int // answers that failed their checks

	e2e    map[string]float64
	layers map[string]layerVal
	spans  *spanLog
}

func newRunState(name string, seed int64, measure time.Duration, traced bool, dir string) *runState {
	return &runState{
		workload: name, seed: seed, measure: measure, traced: traced, dir: dir,
		e2e: map[string]float64{}, layers: map[string]layerVal{}, spans: &spanLog{},
	}
}

// maxProblems bounds how many check failures are printed.
const maxProblems = 20

// problem records an answer that failed its check.
func (r *runState) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems++
	if r.problems <= maxProblems {
		fmt.Fprintln(os.Stderr, "check failed:", fmt.Sprintf(format, args...))
	}
}

func (r *runState) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.problems == 0
}

// opFailed counts an operation that returned an error.
func (r *runState) opFailed(op string, err error) {
	r.failed.Add(1)
	fmt.Fprintf(os.Stderr, "operation failed: %s: %v\n", op, err)
}

func (r *runState) setLayer(name string, value float64, samples int) {
	r.layers[name] = layerVal{value: value, samples: samples}
}

// setLayerMedian records the median of samples.
func (r *runState) setLayerMedian(name string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	r.setLayer(name, median(samples), len(samples))
}

func (r *runState) layerValues() map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.layers {
		out[k] = v.value
	}
	return out
}

func (r *runState) printLayers(out *os.File) {
	for _, d := range layerMetrics {
		v := r.layers[d.name]
		fmt.Fprintf(out, "layer %-30s %12.5g %-5s samples=%d\n", d.name, v.value, d.unit, v.samples)
	}
}

// readSample is one measured read: when it completed, as an offset into the
// measured phase, and how long it took in milliseconds.
type readSample struct {
	end time.Duration
	ms  float64
}

// setReadMetrics fills the read throughput and latency metrics from the
// measured phase: reads completed over the time until the last of them
// completed, and the exact 50th and 99th percentiles of their latencies.
func (r *runState) setReadMetrics(samples []readSample) {
	if len(samples) == 0 {
		return
	}
	lat := make([]float64, len(samples))
	var last time.Duration
	for i, s := range samples {
		lat[i] = s.ms
		last = max(last, s.end)
	}
	sort.Float64s(lat)
	r.e2e["read_qps"] = float64(len(lat)) / last.Seconds()
	r.e2e["read_p50_ms"] = quantile(lat, 0.50)
	r.e2e["read_p99_ms"] = quantile(lat, 0.99)
}

// setupRepeats is how many times tpcw-read and catalog-mixed set up per run;
// setup_s is the median.
const setupRepeats = 3

// setSetup records the median of the set-up times and the live heap after
// the last set-up.
func (r *runState) setSetup(times []float64) {
	r.e2e["setup_s"] = median(times)
	r.e2e["heap_mb"] = liveHeapMB()
}

// liveHeapMB is the live heap after two collections (the second sweeps
// what finalizers released in the first).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// --- statistics ---------------------------------------------------------

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of a sorted
// sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// --- observation deltas -----------------------------------------------------

// obsWindow is a before/after pair of the program's own instrument registry,
// read with its public Snapshot call.
type obsWindow struct{ before, after *obs.Snapshot }

func startObs() *obsWindow { return &obsWindow{before: obs.Default.Snapshot()} }

func (w *obsWindow) stop() { w.after = obs.Default.Snapshot() }

func (w *obsWindow) counter(name string) float64 {
	return float64(w.after.Counters[name] - w.before.Counters[name])
}

// histMeanMs is the mean of a nanosecond histogram's observations inside the
// window, in milliseconds, and how many there were.
func (w *obsWindow) histMeanMs(name string) (float64, int) {
	a, b := w.after.Histograms[name], w.before.Histograms[name]
	n := a.Count - b.Count
	if n == 0 {
		return 0, 0
	}
	return float64(a.Sum-b.Sum) / float64(n) / 1e6, int(n)
}

// runtimeWindow is a before/after pair of the Go runtime's allocation and
// GC-pause metrics.
type runtimeWindow struct{ before, after []metrics.Sample }

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startRuntime() *runtimeWindow { return &runtimeWindow{before: readRuntime()} }

func (w *runtimeWindow) stop() { w.after = readRuntime() }

func (w *runtimeWindow) allocs() (objects, bytes float64) {
	return float64(w.after[0].Value.Uint64() - w.before[0].Value.Uint64()),
		float64(w.after[1].Value.Uint64() - w.before[1].Value.Uint64())
}

// gcPauseP99Ms is the 99th percentile of the GC pauses inside the window,
// taken as the upper edge of the histogram bucket it falls in, and the
// number of pauses.
func (w *runtimeWindow) gcPauseP99Ms() (float64, int) {
	a, b := w.after[2].Value.Float64Histogram(), w.before[2].Value.Float64Histogram()
	counts := make([]uint64, len(a.Counts))
	var total uint64
	for i := range a.Counts {
		counts[i] = a.Counts[i] - b.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0, 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			edge := a.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = a.Buckets[i]
			}
			return edge * 1e3, int(total)
		}
	}
	return 0, int(total)
}

// setRuntimeLayers records allocation and GC metrics of a window over reads
// operations.
func (r *runState) setRuntimeLayers(w *runtimeWindow, reads int) {
	if reads == 0 {
		return
	}
	objs, bytes := w.allocs()
	r.setLayer("go.allocs_per_read", objs/float64(reads), reads)
	r.setLayer("go.alloc_bytes_per_read", bytes/float64(reads), reads)
	p99, n := w.gcPauseP99Ms()
	r.setLayer("go.gc_pause_p99_ms", p99, n)
	// What the measured phase left live (caches, pools), against heap_mb
	// taken after set-up. tpcw-read and catalog-mixed still hold their
	// database open here; catalog-ingest has closed its last one.
	r.setLayer("go.heap_after_mb", liveHeapMB(), 1)
}

// setObsLayers records the per-layer counters every workload shares: query
// routes, snapshot maintenance, plan cache, storage, WAL and checkpoints.
func (r *runState) setObsLayers(w *obsWindow) {
	set := func(name, counter string) {
		v := w.counter(counter)
		r.setLayer(name, v, int(v))
	}
	set("colorful.reads_cached", "db_cached_queries_total")
	set("colorful.reads_compiled", "db_compiled_queries_total")
	set("colorful.reads_evaluator", "db_evaluator_fallbacks_total")
	set("colorful.snapshot_applies", "db_snapshot_incremental_applies_total")
	set("colorful.snapshot_rebuilds", "db_snapshot_full_rebuilds_total")
	set("plan.cache_invalidations", "plan_cache_invalidations_total")
	set("storage.checkpoints", "db_checkpoints_total")
	set("storage.changes_applied", "storage_changes_applied_total")
	set("wal.appends", "wal_appends_total")
	set("wal.fsyncs", "wal_fsyncs_total")
	hits, misses := w.counter("plan_cache_hits_total"), w.counter("plan_cache_misses_total")
	if hits+misses > 0 {
		r.setLayer("plan.cache_hit_ratio", hits/(hits+misses), int(hits+misses))
	}
	if n := w.counter("wal_appends_total"); n > 0 {
		r.setLayer("wal.bytes_per_commit", w.counter("wal_bytes_total")/n, int(n))
	}
	if v, n := w.histMeanMs("wal_sync_nanos"); n > 0 {
		r.setLayer("wal.sync_ms", v, n)
	}
	if v, n := w.histMeanMs("storage_checkpoint_write_nanos"); n > 0 {
		r.setLayer("storage.checkpoint_write_ms", v, n)
	}
}
