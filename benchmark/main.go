// Command benchmark is the repo benchmark: one run sets a named workload up
// from a seed, repeats its fixed round of work for a given number of
// seconds, checks every output, and prints the metrics of BENCHMARK.json.
//
//	bash benchmark/run.sh --workload mem_social --seed 1 --seconds 10 --trace 0
//
// An untraced run goes through the paths users take (core.Benchmark.Run,
// the resultsdb HTTP handler) and reports the end-to-end metrics. A traced
// run (--trace 1) alternates such rounds with rounds in which the benchmark
// calls each layer's public functions itself under spans, reports the
// per-layer metrics and writes the spans to benchmark/out/. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A run sets its workload up at least minSetups times, and goes on (up to
// maxSetups) until the set-ups have taken sizes.setupBudget seconds together,
// so that a set-up of a few milliseconds is timed often enough for its
// median, setup_s, to be steady.
const (
	minSetups = 3
	maxSetups = 100
)

// instance is one set-up of a workload. setup builds everything the rounds
// need from the seed, from nothing; round does the workload's fixed unit of
// work once and checks its outputs. Under a user-path or disabled root the
// round goes through the user path; under a replay root it calls the layers
// itself, one span per call. finish reports the per-layer numbers that are
// not span times; close removes what setup made.
type instance interface {
	setup(seed uint64, root spanRef) error
	round(ctx context.Context, i int, rec *recorder, root spanRef) error
	finish(lv layerValues, sum summary)
	close()
}

// workloadDef is one workload of BENCHMARK.json.
type workloadDef struct {
	name string
	// tail is the percentile reported as op_tail_ms: the highest round
	// figure that leaves at least ten operations beyond it in a
	// full-length run of this workload.
	tail float64
	new  func(sz sizes, logw io.Writer) instance
}

var workloads = []workloadDef{
	{"mem_social", 90, func(sz sizes, logw io.Writer) instance { return newMatrix(memSocial, sz, logw) }},
	{"mem_rmat", 90, func(sz sizes, logw io.Writer) instance { return newMatrix(memRMAT, sz, logw) }},
	{"mr_social", 90, func(sz sizes, logw io.Writer) instance { return newMatrix(mrSocial, sz, logw) }},
	{"ingest_pipeline", 95, func(sz sizes, logw io.Writer) instance { return newIngest(sz, logw) }},
	{"campaign_incremental", 90, func(sz sizes, logw io.Writer) instance { return newIncremental(sz, logw) }},
	{"results_read", 99, func(sz sizes, logw io.Writer) instance { return newResultsRead(sz) }},
	{"results_submit", 90, func(sz sizes, logw io.Writer) instance { return newResultsSubmit(sz) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "seed all inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long to repeat the workload's round")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	repeat := fs.Int("repeat", 0, "run the workload N times in fresh processes, with seeds seed..seed+N-1, and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q; known:", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	if *repeat > 0 {
		return runRepeat(w.name, *seed, *seconds, *trace, *repeat, stdout, stderr)
	}
	res, err := runWorkload(w, fullSizes, *seed, *seconds, *trace != 0, filepath.Join("benchmark", "out"), stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	printResult(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints one line per metric, then the result as one JSON line.
func printResult(stdout io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-36s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, _ := json.Marshal(res) // a struct of numbers, strings and a map of them always marshals
	fmt.Fprintf(stdout, "%s\n", line)
}

// runWorkload is one run: several set-ups, rounds until the time is up, and
// the metrics.
func runWorkload(w workloadDef, sz sizes, seed uint64, seconds float64, traced bool, outDir string, logw io.Writer) (result, error) {
	// core and sched log every campaign; the run's output is the metrics.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var inst instance
	var setupS []float64
	for k, total := 0, 0.0; k < minSetups || (k < maxSetups && total < sz.setupBudget); k++ {
		if inst != nil {
			inst.close()
		}
		describe := logw
		if k > 0 {
			describe = io.Discard // the inputs are the same every time; describe them once
		}
		inst = w.new(sz, describe)
		root := tr.root(kindSetup)
		start := time.Now()
		err := inst.setup(seed, root)
		setupS = append(setupS, time.Since(start).Seconds())
		total += setupS[k]
		root.end()
		if err != nil {
			inst.close()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
	}
	defer inst.close()

	ctx := context.Background()
	rec := &recorder{}
	var roundS []float64 // user-path rounds
	var rssMB []float64  // the peak resident set of each round
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	rounds := 0
	start := time.Now()
	for {
		kind := kindUser
		if traced && rounds%2 == 1 {
			kind = kindReplay
		}
		if err := resetPeakRSS(); err != nil && rounds == 0 {
			fmt.Fprintf(logw, "benchmark: peak_rss_mb is the run's peak, not the median round's: %v\n", err)
		}
		root := tr.root(kind)
		t := time.Now()
		err := inst.round(ctx, rounds, rec, root)
		d := time.Since(t).Seconds()
		root.end()
		rssMB = append(rssMB, peakRSSMB())
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w", rounds, err)
		}
		if kind == kindUser {
			roundS = append(roundS, d)
		}
		rounds++
		// Stop at the round boundary nearest to the time asked for; a
		// traced run needs one round of each kind.
		if time.Since(start).Seconds()+d/2 >= seconds && (!traced || rounds >= 2) {
			break
		}
	}
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)

	for _, f := range rec.failures {
		fmt.Fprintf(logw, "benchmark: failed check: %s\n", f)
	}
	res := result{
		Correct:   rec.failed == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   map[string]metricValue{},
	}
	if !traced {
		if n := samplesBeyond(len(rec.opMS), w.tail); n < 10 {
			fmt.Fprintf(logw, "benchmark: op_tail_ms is p%g of %d operations: only %d beyond it\n", w.tail, len(rec.opMS), n)
		}
		vals := map[string]float64{
			"setup_s":     median(setupS),
			"makespan_s":  median(roundS),
			"op_p50_ms":   median(rec.opMS),
			"op_tail_ms":  percentile(rec.opMS, w.tail),
			"work_per_s":  rec.work / rec.workS,
			"peak_rss_mb": median(rssMB),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		fmt.Fprintf(logw, "benchmark: %s: %d rounds, %d operations, op_tail_ms = p%g\n", w.name, rounds, len(rec.opMS), w.tail)
		return res, nil
	}

	lv := layerValues{}
	sum := tr.summarize()
	inst.finish(lv, sum)
	lv["runtime.alloc_gb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e9 / float64(rounds)
	lv["runtime.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / float64(rounds)
	lv["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / float64(rounds)
	lv["runtime.cpu_s"] = (cpu1 - cpu0) / float64(rounds)
	lv["trace.overhead_frac"] = median(sum.roots[kindReplay])/median(sum.roots[kindUser]) - 1
	lv["trace.coverage_frac"] = sum.coverage
	lv["trace.spans"] = float64(len(tr.spans))
	for _, m := range perLayer {
		v, ok := lv[m.name]
		if !ok && m.unit == "s" {
			v = sum.layers[m.name[:len(m.name)-len("_s")]].self
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	path, err := tr.write(outDir, w.name)
	if err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(logw, "benchmark: %s: %d rounds, %d spans in %s, span coverage %.3f\n", w.name, rounds, len(tr.spans), path, sum.coverage)
	return res, nil
}

// runRepeat runs the workload n times in fresh processes and prints, per
// metric, the median, the quartiles and the spread (the distance between the
// quartiles as a share of the median) — the figure a metric's bound in
// BENCHMARK.json has to stay well above.
func runRepeat(name string, seed uint64, seconds float64, trace, n int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed+uint64(i), 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: run %d: %v\n", i, err)
			return 1
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			fmt.Fprintf(stderr, "benchmark: run %d: bad result line: %v\n", i, err)
			return 1
		}
		for m, v := range res.Metrics {
			values[m] = append(values[m], v.Value)
			units[m] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for m := range values {
		names = append(names, m)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-36s %14s %14s %14s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, m := range names {
		q1, med, q3 := quartiles(values[m])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(stdout, "%-36s %14.6f %14.6f %14.6f %7.2f%%  %s\n", m, q1, med, q3, 100*spread, units[m])
	}
	return 0
}

func lastLine(out []byte) []byte {
	end := len(out)
	for end > 0 && out[end-1] == '\n' {
		end--
	}
	start := end
	for start > 0 && out[start-1] != '\n' {
		start--
	}
	return out[start:end]
}
