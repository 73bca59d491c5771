package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one metric of BENCHMARK.json; main_test.go checks that the
// two lists below and the manifest agree.
type metricDef struct {
	name, unit string
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them on an untraced run, and none is ever 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},      // median time of one set-up (inputs, cold campaign, store seeding)
	{"makespan_s", "s"},   // median wall time of one round of the workload's fixed work
	{"op_p50_ms", "ms"},   // median latency of the workload's operations (cells, loads, passes, requests)
	{"op_tail_ms", "ms"},  // the workload's tail percentile of the same latencies
	{"work_per_s", "1/s"}, // work completed per second of processing (EVPS, cells/s or requests/s)
	{"peak_rss_mb", "MB"}, // median over the rounds of a round's peak resident set (VmHWM)
}

var (
	platformNames = []string{"pregel", "dataflow", "graphdb", "mapreduce"}
	algNames      = []string{"bfs", "sssp", "conn", "pr", "evo", "stats", "cd", "lcc"}
	endpointNames = []string{"compare", "results", "list", "get", "regressions"}
)

// perLayer lists what a traced run reports: one layer's time, count or
// ratio each. A workload that does not enter a layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit string) { out = append(out, metricDef{name, unit}) }
	for _, p := range platformNames {
		for _, a := range algNames {
			add("platform."+p+"."+a+"_s", "s")
		}
		add("platform."+p+".etl_s", "s")
		add("platform."+p+".messages", "count")
		add("platform."+p+".supersteps", "count")
		add("platform."+p+".edges_traversed", "count")
		add("platform."+p+".busy_skew", "ratio")
		add("platform."+p+".peak_mem_mb", "MB")
		add("platform."+p+".alloc_mb", "MB")
	}
	add("platform.graphdb.cache_hit_ratio", "ratio")
	add("algo.reference_s", "s")
	add("workload.validate_s", "s")
	add("core.run_s", "s")
	add("core.overhead_s", "s")
	add("core.etl_s", "s")
	add("core.cells_executed", "count")
	add("core.cells_uptodate", "count")
	for _, a := range algNames {
		add("core.tproc_"+a+"_s", "s")
	}
	add("sched.dispatch_us_per_job", "us")
	add("stamp.open_s", "s")
	add("stamp.of_graph_s", "s")
	add("stamp.put_us", "us")
	add("stamp.entries", "count")
	add("artifact.load_graph_s", "s")
	add("artifact.store_graph_s", "s")
	add("artifact.etl_restore_s", "s")
	add("artifact.etl_store_s", "s")
	add("artifact.hit_ratio", "ratio")
	add("artifact.disk_mb", "MB")
	add("report.render_s", "s")
	add("gen.datagen_s", "s")
	add("gen.rmat_s", "s")
	add("graph.write_text_s", "s")
	add("graph.load_text_v_s", "s")
	add("graph.load_text_nov_s", "s")
	add("graph.load_text.alloc_mb", "MB")
	add("graph.write_galb_s", "s")
	add("graph.load_galb_s", "s")
	add("graph.content_hash_s", "s")
	add("graph.ingest_evps", "1/s")
	for _, e := range endpointNames {
		add("resultsdb."+e+"_ms", "ms")
		add("resultsdb.http_"+e+"_p50_ms", "ms")
	}
	add("resultsdb.http_p99_ms", "ms")
	add("resultsdb.resp_kb_per_req", "KB")
	add("resultsdb.submit_ms", "ms")
	add("resultsdb.http_submit_p50_ms", "ms")
	add("resultsdb.persist_mb", "MB")
	add("resultsdb.open_s", "s")
	add("runtime.alloc_gb", "GB")
	add("runtime.gc_cycles", "count")
	add("runtime.gc_pause_ms", "ms")
	add("runtime.cpu_s", "s")
	add("trace.overhead_frac", "ratio")
	add("trace.coverage_frac", "ratio")
	add("trace.spans", "count")
	return out
}

// layerValues collects a traced run's per-layer numbers that are not span
// self times (counts, ratios, sizes, medians of samples).
type layerValues map[string]float64

// recorder collects what the rounds of a run observe. It is shared by the
// clients of a multi-client workload.
type recorder struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string  // the first few failed checks, for the log
	opMS      []float64 // latency of every operation
	work      float64   // units of work completed
	workS     float64   // seconds the work took
}

// check counts one operation and whether it failed.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// op records the latency of one operation.
func (r *recorder) op(d time.Duration) {
	r.mu.Lock()
	r.opMS = append(r.opMS, float64(d)/1e6)
	r.mu.Unlock()
}

// addWork records units of work and the seconds they took.
func (r *recorder) addWork(units float64, d time.Duration) {
	r.mu.Lock()
	r.work += units
	r.workS += d.Seconds()
	r.mu.Unlock()
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles cuts xs as Python's statistics.quantiles(xs, n=4) does (the
// "exclusive" method), which is how the benchmark's spreads are judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// samplesBeyond is the number of samples above the p-th percentile.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}

// resetPeakRSS restarts the kernel's high-water mark of the resident set, so
// that every round reports its own peak and the run the median of them: a
// single maximum over a whole run moves with every chance alignment of an
// allocation burst and a collection. Where the kernel refuses, the mark keeps
// rising and the rounds report the run's peak so far.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
