// Package report implements the Report Generator of the Graphalytics
// architecture (Figure 2): it "produces the main outcome of
// Graphalytics, a detailed report on the performance of the SUT during
// the benchmark, which includes all relevant configuration information",
// with "consistent reporting that facilitates comparisons between all
// possible combinations of platforms, datasets, and algorithms" (§2).
//
// The text renderers reproduce the shapes of the paper's evaluation:
// Figure 4 (runtime matrix: algorithms × platforms per graph, missing
// values marked) and Figure 5 (kTEPS for CONN).
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/monitor"
	"graphalytics/internal/platform"
	"graphalytics/internal/validation"
	"graphalytics/internal/workload"
)

// Status classifies one benchmark run.
type Status string

// Run statuses. Failed runs appear as "missing values" in the matrix,
// exactly like Figure 4's gaps.
const (
	StatusSuccess   Status = "success"
	StatusOOM       Status = "oom"
	StatusTimeout   Status = "timeout"
	StatusError     Status = "error"
	StatusInvalid   Status = "invalid"
	StatusLoadError Status = "load-failed"
	// StatusCancelled marks a cell interrupted by campaign cancellation
	// (operator abort), not a platform failure: it never consumes retry
	// budget and does not count against the platform.
	StatusCancelled Status = "cancelled"
)

// RunResult is the outcome of one (platform, graph, algorithm) cell.
type RunResult struct {
	Platform  string        `json:"platform"`
	Graph     string        `json:"graph"`
	Algorithm algo.Kind     `json:"algorithm"`
	Status    Status        `json:"status"`
	Runtime   time.Duration `json:"runtime_ns"`
	LoadTime  time.Duration `json:"load_time_ns"`
	// KTEPS is |E| / runtime / 1000 — the Figure 5 metric ("the size of
	// the processed graph is included in this metric").
	KTEPS      float64           `json:"kteps"`
	GraphEdges int64             `json:"graph_edges"`
	Counters   platform.Counters `json:"counters"`
	Monitor    monitor.Report    `json:"-"`
	Validation validation.Result `json:"validation"`
	Err        string            `json:"error,omitempty"`
	Config     map[string]string `json:"config,omitempty"`
	// Reps holds per-cell repetition statistics when the campaign ran
	// the cell more than once (warm-ups or repetitions configured);
	// Runtime then reports the mean of the timed repetitions.
	Reps *RepStats `json:"reps,omitempty"`
	// Attempts counts executions of this cell including scheduler
	// retries of transient failures (0 and 1 both mean one attempt).
	Attempts int `json:"attempts,omitempty"`
	// Resources is the monitoring envelope of the cell (peaks,
	// percentiles, CPU/GC totals); nil when monitoring was disabled.
	Resources *monitor.Resources `json:"resources,omitempty"`
	// Provenance records where the cell's numbers came from:
	// ProvenanceLive (executed this campaign), ProvenanceUptodate
	// (restored from the stamped result store — the cell's fingerprint
	// matched a prior or interrupted campaign), or ProvenanceETLCache
	// (executed, but the platform load came from the ETL artifact
	// cache).
	Provenance Provenance `json:"provenance,omitempty"`
}

// Provenance labels the origin of a cell's numbers in reports.
type Provenance string

// Provenance values, from "all work done now" to "no work done at all".
const (
	// ProvenanceLive marks a cell fully executed in this campaign.
	ProvenanceLive Provenance = ""
	// ProvenanceETLCache marks a cell whose kernels executed in this
	// campaign but whose platform ETL was restored from the artifact
	// cache (LoadTime measures the restore, not the transformation).
	ProvenanceETLCache Provenance = "etl-cache"
	// ProvenanceUptodate marks a cell restored from the stamped result
	// store: its content fingerprint matched a previous (possibly
	// interrupted) campaign, so no kernel ran (the incremental-build
	// UPTODATE state).
	ProvenanceUptodate Provenance = "uptodate"
)

// IngestStat records the ingest phase of one dataset: the wall-clock
// cost of parsing/generating the graph and building its CSR arrays,
// before any platform ETL or algorithm run. LDBC Graphalytics reports
// this separately from processing time (makespan vs. processing-time,
// with an edges-per-second loading figure); IngestStat is that split
// for the host-graph build.
type IngestStat struct {
	Graph    string        `json:"graph"`
	Source   string        `json:"source,omitempty"` // file path or generator spec
	Vertices int           `json:"vertices"`
	Edges    int64         `json:"edges"`
	Duration time.Duration `json:"duration_ns"`
	// Workers is the ingest parallelism the dataset was loaded with
	// (the -load-workers setting; 0 means all cores).
	Workers int `json:"workers,omitempty"`
	// EVPS is edges per second loaded — the LDBC loading metric.
	EVPS float64 `json:"evps"`
}

// Report is a full benchmark report.
type Report struct {
	Started  time.Time   `json:"started"`
	Finished time.Time   `json:"finished"`
	Results  []RunResult `json:"results"`
	// Ingests is the per-dataset ingest (graph load) phase, reported
	// separately from the per-cell processing times in Results.
	Ingests []IngestStat `json:"ingests,omitempty"`
}

// Cell renders one matrix cell: the runtime in seconds, or the failure
// marker (Figure 4: "Missing values indicate failures").
func (r RunResult) Cell() string {
	if r.Status == StatusSuccess {
		return formatSeconds(r.Runtime)
	}
	return "—(" + string(r.Status) + ")"
}

func formatSeconds(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f s", s)
	case s >= 1:
		return fmt.Sprintf("%.1f s", s)
	default:
		return fmt.Sprintf("%.3f s", s)
	}
}

// kindsOf returns the workload rows to render: every registered
// workload in registry order, then any kinds present in the results but
// unknown to the registry (first-seen order), so external results still
// render. Report row order is registry-driven, not hardcoded.
func kindsOf(results []RunResult) []algo.Kind {
	out := workload.Kinds()
	known := make(map[algo.Kind]bool, len(out))
	for _, k := range out {
		known[k] = true
	}
	for _, r := range results {
		if !known[r.Algorithm] {
			known[r.Algorithm] = true
			out = append(out, r.Algorithm)
		}
	}
	return out
}

// graphsOf returns the distinct graph names in first-seen order.
func graphsOf(results []RunResult) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range results {
		if !seen[r.Graph] {
			seen[r.Graph] = true
			out = append(out, r.Graph)
		}
	}
	return out
}

func platformsOf(results []RunResult) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range results {
		if !seen[r.Platform] {
			seen[r.Platform] = true
			out = append(out, r.Platform)
		}
	}
	sort.Strings(out)
	return out
}

// Figure4Table renders the runtime matrix in the shape of Figure 4:
// one block per graph, rows = algorithms, columns = platforms.
func Figure4Table(results []RunResult) string {
	var b strings.Builder
	platforms := platformsOf(results)
	cell := map[string]RunResult{}
	for _, r := range results {
		cell[r.Graph+"|"+string(r.Algorithm)+"|"+r.Platform] = r
	}
	kinds := kindsOf(results)
	for _, g := range graphsOf(results) {
		fmt.Fprintf(&b, "=== %s ===\n", g)
		fmt.Fprintf(&b, "%-8s", "")
		for _, p := range platforms {
			fmt.Fprintf(&b, "%16s", p)
		}
		b.WriteString("\n")
		for _, a := range kinds {
			row := false
			for _, p := range platforms {
				if _, okC := cell[g+"|"+string(a)+"|"+p]; okC {
					row = true
				}
			}
			if !row {
				continue
			}
			fmt.Fprintf(&b, "%-8s", a)
			for _, p := range platforms {
				if r, okC := cell[g+"|"+string(a)+"|"+p]; okC {
					fmt.Fprintf(&b, "%16s", r.Cell())
				} else {
					fmt.Fprintf(&b, "%16s", "")
				}
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure5Table renders the CONN kTEPS matrix in the shape of Figure 5.
func Figure5Table(results []RunResult) string {
	return KTEPSTable(results, algo.CONN)
}

// KTEPSTable renders the kTEPS (|E| / runtime / 1000) matrix of one
// workload in the shape of Figure 5. For weighted workloads (SSSP) the
// metric is the weighted-graph edge throughput: the edge count is the
// loaded (weighted) graph's |E|, so weighted and unweighted campaigns
// stay comparable per edge.
func KTEPSTable(results []RunResult, kind algo.Kind) string {
	var b strings.Builder
	platforms := platformsOf(results)
	cell := map[string]RunResult{}
	for _, r := range results {
		if r.Algorithm == kind {
			cell[r.Graph+"|"+r.Platform] = r
		}
	}
	fmt.Fprintf(&b, "%s kTEPS (|E| / runtime / 1000)\n", kind)
	fmt.Fprintf(&b, "%-16s", "graph")
	for _, p := range platforms {
		fmt.Fprintf(&b, "%16s", p)
	}
	b.WriteString("\n")
	for _, g := range graphsOf(results) {
		fmt.Fprintf(&b, "%-16s", g)
		for _, p := range platforms {
			r, okC := cell[g+"|"+p]
			switch {
			case !okC:
				fmt.Fprintf(&b, "%16s", "")
			case r.Status != StatusSuccess:
				fmt.Fprintf(&b, "%16s", "—("+string(r.Status)+")")
			default:
				fmt.Fprintf(&b, "%16.0f", r.KTEPS)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// IngestTable renders the per-dataset load table: ingest time and
// edges per second (EVPS), the loading metric LDBC Graphalytics
// standardized, reported as its own phase ahead of the runtime matrix.
func IngestTable(ingests []IngestStat) string {
	if len(ingests) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("=== ingest (graph load) ===\n")
	fmt.Fprintf(&b, "%-16s %12s %14s %8s %12s %14s  %s\n",
		"graph", "vertices", "edges", "workers", "time", "EVPS", "source")
	for _, in := range ingests {
		workers := "all"
		if in.Workers > 0 {
			workers = fmt.Sprintf("%d", in.Workers)
		}
		fmt.Fprintf(&b, "%-16s %12d %14d %8s %12s %14.0f  %s\n",
			in.Graph, in.Vertices, in.Edges, workers,
			in.Duration.Round(10*time.Microsecond), in.EVPS, in.Source)
	}
	return b.String()
}

// ResourceTable renders the per-cell phase breakdown (load vs compute
// wall time) and resource envelope (peak RSS, peak heap, mean CPU, GC
// pause) sampled by the System Monitor. Cells with neither monitoring
// data nor a provenance mark are omitted; restored (uptodate) cells
// always render, with their envelope columns carried from the
// original run when it was serialized and "n/a" otherwise — restored
// monitor data is labeled, never silently dropped or passed off as
// fresh samples.
func ResourceTable(results []RunResult) string {
	any := false
	for _, r := range results {
		if r.Resources != nil || r.Provenance != ProvenanceLive {
			any = true
			break
		}
	}
	if !any {
		return ""
	}
	var b strings.Builder
	b.WriteString("=== resources (per cell: phase breakdown + envelope) ===\n")
	fmt.Fprintf(&b, "%-10s %-12s %-6s %10s %10s %10s %10s %8s %10s  %s\n",
		"platform", "graph", "algo", "load", "compute", "peak RSS", "peak heap", "CPU%", "GC pause", "origin")
	for _, r := range results {
		if r.Resources == nil && r.Provenance == ProvenanceLive {
			continue
		}
		rss, heap, cpu, gc := "n/a", "n/a", "n/a", "n/a"
		if res := r.Resources; res != nil {
			if res.PeakRSSBytes > 0 {
				rss = formatBytes(res.PeakRSSBytes)
			}
			heap = formatBytes(res.PeakHeapBytes)
			if res.CPUMeanPercent > 0 {
				cpu = fmt.Sprintf("%.0f", res.CPUMeanPercent)
			}
			gc = res.GCPauseTotal.Round(time.Microsecond).String()
		}
		origin := "live"
		if r.Provenance != ProvenanceLive {
			origin = string(r.Provenance)
		}
		fmt.Fprintf(&b, "%-10s %-12s %-6s %10s %10s %10s %10s %8s %10s  %s\n",
			r.Platform, r.Graph, r.Algorithm,
			formatSeconds(r.LoadTime), formatSeconds(r.Runtime),
			rss, heap, cpu, gc, origin)
	}
	return b.String()
}

// Regression flags one series whose throughput metric dropped beyond
// threshold against its own trailing history in the results database —
// the history-aware comparison the benchmarking literature demands
// before a slowdown claim means anything. For processing regressions
// the metric is kTEPS (per platform, graph, algorithm); for ingest
// regressions it is EVPS (per graph, Platform = "ingest", no
// algorithm).
type Regression struct {
	Platform  string `json:"platform"`
	Graph     string `json:"graph"`
	Algorithm string `json:"algorithm,omitempty"`
	Metric    string `json:"metric"` // "kteps" or "evps"
	// Baseline is the trailing-window mean the latest point is judged
	// against; Latest is the newest submission's value.
	Baseline float64 `json:"baseline"`
	Latest   float64 `json:"latest"`
	// Drop is the relative decline (baseline-latest)/baseline, 0..1.
	Drop float64 `json:"drop"`
	// Threshold is the effective relative threshold the drop exceeded
	// (noise-widened when the baseline window is noisy).
	Threshold float64 `json:"threshold"`
	// Points is the number of history points behind the baseline.
	Points int `json:"points"`
	// SubmissionID is the submission that introduced the drop.
	SubmissionID int64 `json:"submission_id,omitempty"`
}

// RegressionTable renders the regression/trend section of report.txt:
// one row per flagged series. Empty input renders an empty string so
// callers can substitute a "no regressions" line.
func RegressionTable(regs []Regression) string {
	if len(regs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("=== regressions (vs trailing submission history) ===\n")
	fmt.Fprintf(&b, "%-10s %-14s %-6s %-6s %12s %12s %8s %8s %6s\n",
		"platform", "graph", "algo", "metric", "baseline", "latest", "drop", "thresh", "hist")
	for _, r := range regs {
		algoName := r.Algorithm
		if algoName == "" {
			algoName = "-"
		}
		fmt.Fprintf(&b, "%-10s %-14s %-6s %-6s %12.1f %12.1f %7.1f%% %7.1f%% %6d\n",
			r.Platform, r.Graph, algoName, r.Metric,
			r.Baseline, r.Latest, r.Drop*100, r.Threshold*100, r.Points)
	}
	return b.String()
}

func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.0f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// WriteCSV writes all results as CSV.
func WriteCSV(w io.Writer, results []RunResult) error {
	if _, err := fmt.Fprintln(w, "platform,graph,algorithm,status,runtime_ms,load_ms,kteps,edges,messages,network_bytes,supersteps,peak_memory,valid,reps,runtime_min_ms,runtime_max_ms,runtime_stddev_ms"); err != nil {
		return err
	}
	for _, r := range results {
		reps, minMS, maxMS, stddevMS := 1, float64(r.Runtime)/1e6, float64(r.Runtime)/1e6, 0.0
		if r.Reps != nil {
			reps = r.Reps.Reps
			minMS = float64(r.Reps.Min) / 1e6
			maxMS = float64(r.Reps.Max) / 1e6
			stddevMS = float64(r.Reps.Stddev) / 1e6
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%.3f,%.3f,%.1f,%d,%d,%d,%d,%d,%v,%d,%.3f,%.3f,%.3f\n",
			r.Platform, r.Graph, r.Algorithm, r.Status,
			float64(r.Runtime)/1e6, float64(r.LoadTime)/1e6, r.KTEPS, r.GraphEdges,
			r.Counters.Messages, r.Counters.NetworkBytes, r.Counters.Supersteps,
			r.Counters.PeakMemoryBytes, r.Validation.Valid,
			reps, minMS, maxMS, stddevMS); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the full report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Summary returns a one-paragraph textual summary (counts per status,
// plus how many cells were restored rather than executed).
func (rep *Report) Summary() string {
	counts := map[Status]int{}
	prov := map[Provenance]int{}
	for _, r := range rep.Results {
		counts[r.Status]++
		prov[r.Provenance]++
	}
	parts := make([]string, 0, len(counts))
	for _, s := range []Status{StatusSuccess, StatusOOM, StatusTimeout, StatusError, StatusInvalid, StatusLoadError, StatusCancelled} {
		if counts[s] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", counts[s], s))
		}
	}
	for _, p := range []Provenance{ProvenanceUptodate, ProvenanceETLCache} {
		if prov[p] > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", prov[p], p))
		}
	}
	return fmt.Sprintf("%d runs (%s) in %s",
		len(rep.Results), strings.Join(parts, ", "), rep.Finished.Sub(rep.Started).Round(time.Millisecond))
}
