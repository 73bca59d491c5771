// Package core implements the Benchmark Core of the Graphalytics
// architecture (Figure 2): "the benchmark harness that binds together
// Graphalytics". It drives the full run matrix (platforms × graphs ×
// algorithms), times each execution excluding ETL (§3.3: "The runtime
// measures the complete execution of an algorithm, from job submission
// to result availability, but does not include ETL"), enforces per-run
// timeouts, captures failures as missing values, validates every output
// against the reference implementations, monitors the system during
// runs, and hands the results to the Report Generator.
//
// Validation computes each reference output once per campaign: the
// cells of one (graph, workload) pair on every platform share one
// lazily computed reference, which is dropped when the last of them
// finishes.
//
// Campaigns execute through the internal/sched scheduler: the matrix
// becomes a DAG with one ETL/load job per (platform, graph) pair
// feeding one run job per algorithm cell, executed by a bounded worker
// pool with per-platform concurrency limits. Each cell may repeat
// (warm-ups plus timed repetitions, the methodology LDBC Graphalytics
// standardized), transient failures retry while OOM/timeout stay
// terminal. Every successful cell is recorded in one stamped result
// store (stamp.Store) under its content fingerprint, and a cell whose
// fingerprint is already stored restores as UPTODATE instead of
// running — which is both how an interrupted campaign resumes and how
// an unchanged re-run becomes a no-op. Failed cells are never stored,
// so they re-run. The report is collated by matrix coordinates, so its
// ordering is identical regardless of schedule.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/artifact"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/report"
	"graphalytics/internal/sched"
	"graphalytics/internal/stamp"
)

// Benchmark is one configured benchmark campaign.
type Benchmark struct {
	// Platforms are the systems under test. Names must be unique: they
	// key the report matrix.
	Platforms []platform.Platform
	// Graphs are the datasets. Names must be unique.
	Graphs []*graph.Graph
	// Algorithms is the workload selection (nil = every workload in the
	// registry, in registry order).
	Algorithms []algo.Kind
	// Params carries algorithm parameters (zero fields take defaults).
	Params algo.Params
	// Timeout bounds each algorithm execution (0 = no timeout). Timed
	// out cells appear as missing values, the way the paper reports
	// "Due to time constraints, MapReduce was not able to complete some
	// algorithms on Graph500".
	Timeout time.Duration
	// Validate enables the Output Validator on every successful run.
	Validate bool
	// MonitorInterval sets the System Monitor sampling period
	// (0 disables monitoring).
	MonitorInterval time.Duration
	// Progress, when non-nil, receives a line per completed cell. Under
	// a parallel schedule cells complete out of matrix order; the final
	// report is collated by coordinates regardless.
	Progress func(r report.RunResult)

	// Parallelism bounds concurrently executing campaign jobs
	// (0 = runtime.NumCPU()). Parallelism 1 reproduces the sequential
	// nested-loop schedule: load a graph, run its cells, unload, next.
	Parallelism int
	// Reps is the number of timed repetitions per cell (<= 1 = one).
	// With more than one, RunResult.Runtime is the mean of the timed
	// repetitions and RunResult.Reps carries the full statistics.
	Reps int
	// Warmup is the number of untimed warm-up executions before the
	// timed repetitions of each cell.
	Warmup int
	// Retries is the number of extra attempts granted to transiently
	// failed cells. Out-of-memory and timeout are terminal states and
	// never retry.
	Retries int
	// Ingests records the host-graph ingest phase (parse + CSR build)
	// of each dataset, carried into the report as a first-class phase
	// alongside the per-cell processing times. Drivers populate it via
	// core.Ingest while building Graphs.
	Ingests []report.IngestStat
	// Tracker, when non-nil, observes the live schedule so a driver can
	// serve campaign progress (per-job state, per-worker occupation,
	// ETA) while the matrix runs — the "/status" view.
	Tracker *sched.Tracker

	// Stamps, when non-nil, enables the incremental campaign engine:
	// every successful cell is recorded in this stamped result store
	// under its content fingerprint (dataset identity × workload and
	// validation policy × platform configuration including the worker
	// budget × binary version), and a cell whose fingerprint is already
	// stored is marked UPTODATE — its full report entry (runtimes,
	// RepStats, kTEPS) restores and no kernel runs. This is also how an
	// interrupted campaign resumes: re-running it over the same store
	// executes only the cells that did not succeed. Drivers normally
	// open the store at artifact.Cache.StampStorePath() so stamps live
	// next to the cached artifacts.
	Stamps *stamp.Store
	// GraphStamps maps graph names to dataset fingerprints supplied by
	// the driver (generator kind + seed + parameters — cheaper and more
	// precise than content hashing). Graphs without an entry are
	// fingerprinted by content (one serialization pass) whenever
	// stamping or artifact caching is active.
	GraphStamps map[string]stamp.Fingerprint
	// Artifacts, when non-nil, caches platform ETL outputs under their
	// fingerprint for platforms implementing platform.CachedLoader, so a
	// later campaign restores the loaded form instead of re-running the
	// transformation.
	Artifacts *artifact.Cache
	// BinaryVersion overrides stamp.BinaryVersion() as the binary /
	// kernel version folded into fingerprints. Tests use it to simulate
	// a rebuilt binary invalidating stamped results.
	BinaryVersion string

	// Executor, when non-nil, replaces the local pool with an external
	// cell executor — the seam the distributed campaign manager
	// (internal/dist) plugs into: every pending cell becomes one
	// scheduler job that hands a self-contained CellSpec to the
	// executor and records whatever comes back through the same
	// stamp/collation path as local execution. Platforms are
	// never loaded in this process; ETL happens wherever the executor
	// runs the cell. Local execution (nil) is the default and its
	// schedule, job structure, and report output are unchanged.
	Executor CellExecutor
}

// Ingest runs build, timing it as a dataset's ingest phase — the
// makespan-vs-processing split LDBC Graphalytics standardized. source
// names where the graph came from (a file path or generator spec) and
// workers is the ingest parallelism it was built with (0 = all cores).
func Ingest(source string, workers int, build func() (*graph.Graph, error)) (*graph.Graph, report.IngestStat, error) {
	start := time.Now()
	g, err := build()
	d := time.Since(start)
	if err != nil {
		return nil, report.IngestStat{}, err
	}
	st := report.IngestStat{
		Graph:    g.Name(),
		Source:   source,
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
		Duration: d,
		Workers:  workers,
	}
	if d > 0 {
		st.EVPS = float64(g.NumEdges()) / d.Seconds()
	}
	return g, st, nil
}

// Run executes the full matrix and returns the report. The context
// cancels the whole campaign.
func (b *Benchmark) Run(ctx context.Context) (*report.Report, error) {
	c, err := b.newCampaign()
	if err != nil {
		return nil, err
	}
	return c.run(ctx)
}

// campaign is the shared state of one Benchmark.Run: the cell slots the
// jobs fill and the per-(platform, graph) load states.
type campaign struct {
	b     *Benchmark
	algs  []algo.Kind
	retry sched.RetryPolicy
	// cells has one slot per matrix coordinate; each slot is written by
	// exactly one job (or restored from the stamp store before
	// scheduling).
	cells []*report.RunResult
	pgs   []*pgState
	// progressMu serializes the Progress callback across workers.
	progressMu sync.Mutex

	// stamping is true when cell fingerprints are computed at all —
	// whenever a stamped result store, artifact cache, or executor is
	// configured. Without any of them the campaign pays zero hashing.
	stamping bool
	// binary is the resolved binary/kernel version in fingerprints.
	binary string
	// graphFPs maps graph names to dataset fingerprints.
	graphFPs map[string]stamp.Fingerprint
	// wlStamps maps each algorithm to its workload identity stamp
	// (kind + validation policy + whether validation runs).
	wlStamps map[algo.Kind]string

	// refs holds the reference output of each (graph, workload) pair
	// that local cells validate against. Planning fills the map; it is
	// read-only once jobs run.
	refs map[refKey]*reference
}

// run plans, schedules and collates the campaign.
func (c *campaign) run(ctx context.Context) (*report.Report, error) {
	b := c.b
	rep := &report.Report{Started: time.Now()}
	rep.Ingests = append(rep.Ingests, b.Ingests...)
	jobs, opts := c.buildJobs()
	slog.Info("core: campaign start",
		"platforms", len(b.Platforms), "graphs", len(b.Graphs), "algorithms", len(c.algs),
		"cells", len(c.cells), "jobs", len(jobs), "reps", b.Reps, "warmup", b.Warmup)
	_, schedErr := sched.Run(ctx, jobs, opts)
	// Unload any graph whose cells did not all finish (cancellation).
	for _, pg := range c.pgs {
		if pg.loaded != nil && pg.remaining.Load() > 0 {
			pg.loaded.Close()
		}
	}
	if schedErr != nil {
		return nil, schedErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Deterministic collation: matrix coordinates, never schedule order.
	for i, r := range c.cells {
		if r == nil {
			// Every path (success, failure, load failure, restore)
			// fills its slot; this is a harness bug, not a missing value.
			return nil, fmt.Errorf("core: internal error: cell %d not executed", i)
		}
		rep.Results = append(rep.Results, *r)
	}
	rep.Finished = time.Now()
	return rep, nil
}
