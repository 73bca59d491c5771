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
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/artifact"
	"graphalytics/internal/graph"
	"graphalytics/internal/monitor"
	"graphalytics/internal/par"
	"graphalytics/internal/platform"
	"graphalytics/internal/report"
	"graphalytics/internal/sched"
	"graphalytics/internal/stamp"
	"graphalytics/internal/telemetry"
	"graphalytics/internal/validation"
	"graphalytics/internal/workload"
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

// newCampaign checks the configuration and resolves the fingerprint
// inputs of one Run.
func (b *Benchmark) newCampaign() (*campaign, error) {
	if len(b.Platforms) == 0 {
		return nil, errors.New("core: no platforms configured")
	}
	if len(b.Graphs) == 0 {
		return nil, errors.New("core: no graphs configured")
	}
	if err := checkUniqueNames(b.Platforms, b.Graphs); err != nil {
		return nil, err
	}
	algs := b.Algorithms
	if len(algs) == 0 {
		algs = workload.Kinds()
	}
	seenAlg := map[algo.Kind]bool{}
	for _, a := range algs {
		if seenAlg[a] {
			return nil, fmt.Errorf("core: duplicate algorithm %q", a)
		}
		if _, okW := workload.Lookup(a); !okW {
			return nil, fmt.Errorf("core: algorithm %q is not in the workload registry", a)
		}
		seenAlg[a] = true
	}

	c := &campaign{
		b:     b,
		algs:  algs,
		cells: make([]*report.RunResult, len(b.Platforms)*len(b.Graphs)*len(algs)),
		retry: sched.RetryPolicy{
			MaxAttempts: b.Retries + 1,
			Retryable:   transient,
		},
		refs: map[refKey]*reference{},
	}
	if err := c.setupStamps(algs); err != nil {
		return nil, err
	}
	return c, nil
}

// run plans, schedules and collates the campaign.
func (c *campaign) run(ctx context.Context) (*report.Report, error) {
	b := c.b
	rep := &report.Report{Started: time.Now()}
	rep.Ingests = append(rep.Ingests, b.Ingests...)
	jobs := c.buildJobs()
	slog.Info("core: campaign start",
		"platforms", len(b.Platforms), "graphs", len(b.Graphs), "algorithms", len(c.algs),
		"cells", len(c.cells), "jobs", len(jobs), "reps", b.Reps, "warmup", b.Warmup)
	parallelism := b.Parallelism
	limits := c.classLimits()
	if b.Executor != nil {
		// Lease-pool mode: jobs spend their time blocked in ExecuteCell
		// waiting for remote capacity, so the real concurrency bound is
		// the executor's, not this process's core count. Default to one
		// goroutine per cell and drop the per-platform class limits —
		// platform resource budgets belong to the process that loads the
		// graph, and that is the runner.
		if parallelism == 0 {
			parallelism = len(jobs)
		}
		limits = nil
	}
	_, schedErr := sched.Run(ctx, jobs, sched.Options{
		Parallelism: parallelism,
		ClassLimits: limits,
		Retry:       c.retry,
		Tracker:     b.Tracker,
	})
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

func checkUniqueNames(platforms []platform.Platform, graphs []*graph.Graph) error {
	seen := map[string]bool{}
	for _, p := range platforms {
		if seen[p.Name()] {
			return fmt.Errorf("core: duplicate platform name %q", p.Name())
		}
		seen[p.Name()] = true
	}
	seen = map[string]bool{}
	for _, g := range graphs {
		if seen[g.Name()] {
			return fmt.Errorf("core: duplicate graph name %q", g.Name())
		}
		seen[g.Name()] = true
	}
	return nil
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

var referencesTotal = telemetry.Metrics.Counter("core_references_total",
	"reference outputs computed, one per (graph, workload) pair a campaign validates")

type refKey struct {
	graph string
	alg   algo.Kind
}

// reference is the reference output of one (graph, workload) pair,
// shared by that pair's cells on every platform. Params are
// campaign-wide and their defaults depend only on the graph, so the pair
// determines the output. The first cell to validate computes it, cells
// validating meanwhile wait for that computation, and the last sharing
// cell to finish drops it, so a pair holds its output no longer than its
// cells need it.
type reference struct {
	spec   workload.Spec
	g      *graph.Graph
	params algo.Params
	once   sync.Once
	out    any
	// pending counts the sharing cells that have not finished.
	pending atomic.Int64
}

// shareReference returns the reference entry of (g, a), creating it on
// first use, and counts one more cell sharing it.
func (c *campaign) shareReference(g *graph.Graph, a algo.Kind) *reference {
	k := refKey{g.Name(), a}
	ref := c.refs[k]
	if ref == nil {
		spec, _ := workload.Lookup(a)
		ref = &reference{spec: spec, g: g, params: c.b.Params.WithDefaults(g.NumVertices())}
		c.refs[k] = ref
	}
	ref.pending.Add(1)
	return ref
}

// want returns the reference output, computing it on first use.
func (r *reference) want() any {
	r.once.Do(func() {
		sp := telemetry.StartSpan("cell", "reference:"+r.g.Name()+"/"+string(r.spec.Kind))
		r.out = r.spec.Reference(r.g, r.params)
		sp.End()
		referencesTotal.Inc()
	})
	return r.out
}

// release records that one sharing cell finished; the last one drops
// the output.
func (r *reference) release() {
	if r.pending.Add(-1) == 0 {
		r.out = nil
	}
}

// setupStamps resolves the fingerprint inputs: the binary version, one
// dataset fingerprint per graph (driver-supplied generator identity, or
// content hash as fallback), and one workload stamp per algorithm.
func (c *campaign) setupStamps(algs []algo.Kind) error {
	b := c.b
	// An external executor always stamps: the dataset fingerprint is the
	// content address under which runners fetch graph artifacts, and the
	// cell fingerprint keeps manager- and runner-side stamp stores
	// coherent.
	c.stamping = b.Stamps != nil || b.Artifacts != nil || b.Executor != nil
	if !c.stamping {
		return nil
	}
	c.binary = b.BinaryVersion
	if c.binary == "" {
		c.binary = stamp.BinaryVersion()
	}
	c.graphFPs = make(map[string]stamp.Fingerprint, len(b.Graphs))
	for _, g := range b.Graphs {
		if fp, ok := b.GraphStamps[g.Name()]; ok && !fp.IsZero() {
			c.graphFPs[g.Name()] = fp
			continue
		}
		sp := telemetry.StartSpan("stamp", "graph-fingerprint:"+g.Name())
		fp, err := stamp.OfGraph(g)
		sp.End()
		if err != nil {
			return fmt.Errorf("core: fingerprinting graph %s: %w", g.Name(), err)
		}
		c.graphFPs[g.Name()] = fp
	}
	c.wlStamps = make(map[algo.Kind]string, len(algs))
	for _, a := range algs {
		spec, _ := workload.Lookup(a)
		c.wlStamps[a] = fmt.Sprintf("%s/policy=%s/validate=%t", a, spec.Policy, b.Validate)
	}
	return nil
}

// cellFP is the content fingerprint of one matrix cell — everything
// that determines its result. The zero fingerprint means stamping is
// off.
func (c *campaign) cellFP(p platform.Platform, g *graph.Graph, a algo.Kind) stamp.Fingerprint {
	if !c.stamping {
		return stamp.Fingerprint{}
	}
	return stamp.Cell(stamp.CellInputs{
		Graph:          c.graphFPs[g.Name()],
		Workload:       c.wlStamps[a],
		Params:         stamp.JSON(c.b.Params.WithDefaults(g.NumVertices())),
		Platform:       p.Name(),
		PlatformConfig: platform.StampConfigOf(p),
		Binary:         c.binary,
	})
}

// pgState is the lifecycle of one (platform, graph) pair: the loaded
// graph handle, its ETL time, and the countdown of unfinished cells
// that decides when to unload.
type pgState struct {
	p        platform.Platform
	g        *graph.Graph
	loaded   platform.Loaded
	loadTime time.Duration
	// etlCached marks that loaded came from the ETL artifact cache, so
	// the pair's cells report ETL-cache provenance.
	etlCached bool
	// remaining counts this pair's run jobs still owing a final
	// outcome; the job that decrements it to zero closes loaded.
	remaining atomic.Int64
	// pendingCells lists the (slot, algorithm) pairs the load job must
	// fill with missing values if ETL terminally fails.
	pendingCells []pendingCell
}

type pendingCell struct {
	slot int
	alg  algo.Kind
	key  string
	fp   stamp.Fingerprint
	// ref is the shared reference the cell validates against (nil when
	// the campaign does not validate or an executor runs the cell).
	ref *reference
}

// cellKey is the scheduler job identity of one matrix cell.
func cellKey(p, g string, a algo.Kind) string {
	return "cell/" + p + "/" + g + "/" + string(a)
}

// buildJobs turns the matrix into scheduler jobs. Cells restored from
// the stamped result store (UPTODATE) create no job; the remainder is
// planned by the active execution path — the local pool (per
// (platform, graph) pair one load job feeding one run job per
// algorithm; a pair whose cells all restored skips its load job
// too, so a re-run of an unchanged matrix performs zero loads and zero
// kernel runs) or, with an Executor configured, one independent
// executor job per cell.
func (c *campaign) buildJobs() []sched.Job {
	b := c.b
	var jobs []sched.Job
	for pi, p := range b.Platforms {
		for gi, g := range b.Graphs {
			pending := c.pendingCellsFor(pi, p, gi, g)
			if len(pending) == 0 {
				continue
			}
			if b.Executor != nil {
				jobs = append(jobs, c.executorJobs(p, g, pending)...)
				continue
			}
			jobs = append(jobs, c.localJobs(p, g, pending)...)
		}
	}
	return jobs
}

// pendingCellsFor restores what it can of one (platform, graph) pair's
// cells and returns the rest — the cells some executor must actually
// run — with their slots, job keys, and fingerprints resolved.
func (c *campaign) pendingCellsFor(pi int, p platform.Platform, gi int, g *graph.Graph) []pendingCell {
	b := c.b
	var pending []pendingCell
	for ai, a := range c.algs {
		slot := (pi*len(b.Graphs)+gi)*len(c.algs) + ai
		fp := c.cellFP(p, g, a)
		if c.restoreCell(slot, fp, p.Name(), g.Name(), a) {
			continue
		}
		if b.Stamps != nil {
			telemetry.Metrics.Counter("stamp_cell_misses_total",
				"matrix cells the stamped result store held no usable entry for").Inc()
		}
		pending = append(pending, pendingCell{slot: slot, alg: a, key: cellKey(p.Name(), g.Name(), a), fp: fp})
	}
	return pending
}

// localJobs plans one (platform, graph) pair for the local pool: a load
// job (the ETL step, run once) feeding one run job per pending cell.
func (c *campaign) localJobs(p platform.Platform, g *graph.Graph, pending []pendingCell) []sched.Job {
	if c.b.Validate {
		for i := range pending {
			pending[i].ref = c.shareReference(g, pending[i].alg)
		}
	}
	pg := &pgState{p: p, g: g, pendingCells: pending}
	loadID := "load/" + p.Name() + "/" + g.Name()
	jobs := make([]sched.Job, 0, len(pending)+1)
	jobs = append(jobs, sched.Job{
		ID:    loadID,
		Class: p.Name(),
		Run: func(ctx context.Context, attempt int) error {
			return c.loadJob(pg, attempt)
		},
	})
	for _, cell := range pending {
		cell := cell
		jobs = append(jobs, sched.Job{
			ID:    cell.key,
			Deps:  []string{loadID},
			Class: p.Name(),
			Run: func(ctx context.Context, attempt int) error {
				return c.runCellJob(ctx, pg, cell, attempt)
			},
		})
	}
	pg.remaining.Store(int64(len(pending)))
	c.pgs = append(c.pgs, pg)
	return jobs
}

// classLimits maps each platform to its concurrency hint so that
// memory-budgeted engines serialize their own jobs while the rest of
// the campaign proceeds.
func (c *campaign) classLimits() map[string]int {
	limits := map[string]int{}
	for _, p := range c.b.Platforms {
		if n := platform.ConcurrencyLimitOf(p); n > 0 {
			limits[p.Name()] = n
		}
	}
	return limits
}

// restoreCell fills a slot without executing anything when the stamped
// result store holds the cell's fingerprint (the cell is UPTODATE: some
// prior campaign — or an interrupted run of this one — produced this
// exact result). Restored results carry a provenance mark so reports
// never pass restored numbers off as fresh measurements. Only a
// successful result of this very cell restores: an entry that does not
// decode, carries no value, failed, or names other coordinates (a
// hand-edited or hostile store) just re-runs the cell.
func (c *campaign) restoreCell(slot int, fp stamp.Fingerprint, p, g string, a algo.Kind) bool {
	if c.b.Stamps == nil || fp.IsZero() {
		return false
	}
	var r report.RunResult
	if ok, err := c.b.Stamps.Get(fp, &r); !ok || err != nil {
		return false
	}
	if r.Status != report.StatusSuccess || r.Platform != p || r.Graph != g || r.Algorithm != a {
		return false
	}
	r.Provenance = report.ProvenanceUptodate
	c.cells[slot] = &r
	telemetry.Metrics.Counter("stamp_cell_hits_total",
		"matrix cells restored from the stamped result store (UPTODATE)").Inc()
	return true
}

// finalAttempt reports whether the scheduler will not re-run the job
// after err, so jobs record results only on their last attempt. The
// decision is the scheduler's own retry predicate, not a copy of it.
func (c *campaign) finalAttempt(err error, attempt int) bool {
	return !c.retry.WillRetry(err, attempt)
}

// loadJob performs the ETL step for one (platform, graph) pair. On
// terminal failure every pending cell of the pair becomes a missing
// value (the Neo4j/GraphX behaviour on oversized graphs) and the
// returned error makes the scheduler skip the pair's run jobs.
func (c *campaign) loadJob(pg *pgState, attempt int) error {
	sp := telemetry.StartSpan("cell", "load:"+pg.p.Name()+"/"+pg.g.Name())
	sp.SetAttr("platform", pg.p.Name())
	sp.SetAttr("graph", pg.g.Name())
	sp.SetAttr("attempt", attempt)
	loadStart := time.Now()
	var loaded platform.Loaded
	var cached bool
	err := par.Call(func() (err error) {
		loaded, cached, err = c.loadOrRestore(pg)
		return err
	})
	pg.loadTime = time.Since(loadStart)
	pg.etlCached = cached
	if cached {
		sp.SetAttr("etl", "cache")
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	if err != nil {
		err = loadError{err}
		if c.finalAttempt(err, attempt) {
			status := statusOf(err)
			for _, cell := range pg.pendingCells {
				r := report.RunResult{
					Platform: pg.p.Name(), Graph: pg.g.Name(), Algorithm: cell.alg,
					Status: status, LoadTime: pg.loadTime,
					GraphEdges: pg.g.NumEdges(), Err: err.Error(),
					Attempts: attempt,
				}
				c.finishCell(cell, r)
			}
		}
		return err
	}
	pg.loaded = loaded
	return nil
}

// loadOrRestore performs the ETL step, going through the artifact cache
// when the platform supports it: a cached blob restores via ReadETL
// (budget-checked like a live load); a miss runs LoadGraph and stores
// the result for the next campaign; a corrupt or unreadable artifact is
// reported, regenerated, and overwritten — never trusted.
func (c *campaign) loadOrRestore(pg *pgState) (platform.Loaded, bool, error) {
	cl, ok := pg.p.(platform.CachedLoader)
	if !ok || c.b.Artifacts == nil || !c.stamping {
		l, err := pg.p.LoadGraph(pg.g)
		return l, false, err
	}
	fp := ETLFingerprint(cl, c.graphFPs[pg.g.Name()], c.binary)
	rc, hit, err := c.b.Artifacts.OpenETL(fp)
	if err != nil {
		slog.Warn("core: corrupt ETL artifact; re-running ETL",
			"platform", pg.p.Name(), "graph", pg.g.Name(), "err", err)
	} else if hit {
		l, rerr := cl.ReadETL(pg.g, rc)
		rc.Close()
		if rerr == nil {
			return l, true, nil
		}
		if errors.Is(rerr, platform.ErrOutOfMemory) {
			// The blob restored fine but does not fit the budget — the
			// same terminal failure a live load would hit.
			return nil, false, rerr
		}
		slog.Warn("core: unreadable ETL artifact; re-running ETL",
			"platform", pg.p.Name(), "graph", pg.g.Name(), "err", rerr)
	}
	l, err := pg.p.LoadGraph(pg.g)
	if err != nil {
		return nil, false, err
	}
	if serr := c.b.Artifacts.StoreETL(fp, func(w io.Writer) error {
		return cl.WriteETL(l, w)
	}); serr != nil {
		slog.Warn("core: storing ETL artifact failed; next campaign re-runs ETL",
			"platform", pg.p.Name(), "graph", pg.g.Name(), "err", serr)
	}
	return l, false, nil
}

// ETLFingerprint is the content address of cl's ETL artifact for the
// dataset graphFP under binary: the key a local load restores from and
// a runner prefetches.
func ETLFingerprint(cl platform.CachedLoader, graphFP stamp.Fingerprint, binary string) stamp.Fingerprint {
	return stamp.ETL(graphFP, cl.Name(), platform.StampConfigOf(cl), cl.ETLVersion(), binary)
}

// runCellJob executes one matrix cell (warm-ups + repetitions) and, on
// its final attempt, records the result and possibly unloads the
// graph. Transient failures propagate so the scheduler can retry.
func (c *campaign) runCellJob(ctx context.Context, pg *pgState, cell pendingCell, attempt int) error {
	r, execErr := c.runCell(ctx, pg, cell)
	r.Attempts = attempt
	if ctx.Err() != nil {
		// Never record a cancelled cell: the resumed campaign must
		// re-run it.
		return ctx.Err()
	}
	if !c.finalAttempt(execErr, attempt) {
		return execErr
	}
	c.finishCell(cell, r)
	if pg.remaining.Add(-1) == 0 {
		pg.loaded.Close()
	}
	return nil
}

// finishCell publishes a final cell outcome: slot write (collation),
// release of the shared reference, stamp-store entry (successes only —
// failures must re-run next campaign, they are circumstances, not
// content), progress callback (live output). The stamp write is
// best-effort — a failed write only means the cell re-runs later — but
// it is counted, never silently dropped.
func (c *campaign) finishCell(cell pendingCell, r report.RunResult) {
	key, fp := cell.key, cell.fp
	c.cells[cell.slot] = &r
	if cell.ref != nil {
		cell.ref.release()
	}
	slog.Debug("core: cell finished",
		"cell", key, "platform", r.Platform, "graph", r.Graph, "algorithm", string(r.Algorithm),
		"status", string(r.Status), "runtime", r.Runtime, "attempts", r.Attempts)
	if c.b.Stamps != nil && !fp.IsZero() && r.Status == report.StatusSuccess {
		if err := c.b.Stamps.Put(fp, r); err != nil {
			telemetry.Metrics.Counter("stamp_store_write_failures_total",
				"successful cells that failed to record in the stamped result store").Inc()
			slog.Debug("core: stamp store write failed", "cell", key, "err", err)
		}
	}
	if c.b.Progress != nil {
		c.progressMu.Lock()
		c.b.Progress(r)
		c.progressMu.Unlock()
	}
}

// runCell executes the repetition sequence of one cell: Warmup untimed
// executions, then max(1, Reps) timed repetitions. The returned error
// is the raw execution error (nil on success) for the retry policy;
// the RunResult is complete either way.
func (c *campaign) runCell(ctx context.Context, pg *pgState, cell pendingCell) (report.RunResult, error) {
	b, a := c.b, cell.alg
	r := report.RunResult{
		Platform: pg.p.Name(), Graph: pg.g.Name(), Algorithm: a,
		LoadTime: pg.loadTime, GraphEdges: pg.g.NumEdges(),
	}
	if pg.etlCached {
		// The kernels run live, but LoadTime measured an artifact
		// restore, not the platform's ETL — reports must say so.
		r.Provenance = report.ProvenanceETLCache
	}
	reps := b.Reps
	if reps < 1 {
		reps = 1
	}
	warmup := b.Warmup
	if warmup < 0 {
		warmup = 0
	}
	total := warmup + reps

	var mon *monitor.Monitor
	if b.MonitorInterval > 0 {
		mon = monitor.New(b.MonitorInterval)
		mon.Start()
	}
	stopMonitor := func() {
		if mon != nil {
			r.Monitor = mon.Stop()
			mon = nil
			if len(r.Monitor.Samples) > 0 || r.Monitor.Duration > 0 {
				env := r.Monitor.Resources()
				r.Resources = &env
			}
		}
	}

	cellTag := pg.p.Name() + "/" + pg.g.Name() + "/" + string(a)
	runtimes := make([]time.Duration, 0, total)
	var res *platform.Result
	for i := 0; i < total; i++ {
		runCtx, cancel := ctx, func() {}
		if b.Timeout > 0 {
			runCtx, cancel = context.WithTimeout(ctx, b.Timeout)
		}
		phase := "rep"
		if i < warmup {
			phase = "warmup"
		}
		sp := telemetry.StartSpan("cell", phase+":"+cellTag)
		sp.SetAttr("rep", i)
		start := time.Now()
		var out *platform.Result
		err := par.Call(func() (err error) {
			out, err = pg.loaded.Run(runCtx, a, b.Params)
			return err
		})
		d := time.Since(start)
		cancel()
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		telemetry.Metrics.Histogram("core_rep_seconds",
			"single algorithm execution time (warm-ups included)", telemetry.DurationBuckets).
			Observe(d.Seconds())
		if err != nil {
			stopMonitor()
			r.Runtime = d
			r.Status, r.Err = statusOf(err), err.Error()
			return r, err
		}
		runtimes = append(runtimes, d)
		res = out
	}
	stopMonitor()

	// §3.3 runtime: with repetitions, the mean of the timed runs.
	timed := runtimes[warmup:]
	var sum time.Duration
	for _, d := range timed {
		sum += d
	}
	r.Runtime = sum / time.Duration(len(timed))
	if total > 1 {
		r.Reps = report.NewRepStats(warmup, runtimes)
	}
	r.Status = report.StatusSuccess
	r.Counters = res.Counters
	if r.Runtime > 0 {
		r.KTEPS = float64(pg.g.NumEdges()) / r.Runtime.Seconds() / 1000
	}
	if b.Validate {
		ref := cell.ref
		want := ref.want()
		vsp := telemetry.StartSpan("cell", "validate:"+cellTag)
		r.Validation = ref.spec.Check(pg.g, ref.params, res.Output, want)
		vsp.SetAttr("valid", r.Validation.Valid)
		vsp.End()
		if !r.Validation.Valid {
			r.Status = report.StatusInvalid
			r.Err = fmt.Sprintf("validation: %s", r.Validation.Detail)
		}
	} else {
		r.Validation = validation.Result{Valid: true}
	}
	return r, nil
}
