package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/report"
	"graphalytics/internal/sched"
	"graphalytics/internal/telemetry"
	"graphalytics/internal/workload"
)

// newCampaign checks the configuration and resolves the fingerprint
// inputs of one Run.
func (b *Benchmark) newCampaign() (*campaign, error) {
	if len(b.Platforms) == 0 {
		return nil, errors.New("core: no platforms configured")
	}
	if len(b.Graphs) == 0 {
		return nil, errors.New("core: no graphs configured")
	}
	algs := b.Algorithms
	if len(algs) == 0 {
		algs = workload.Kinds()
	}
	if err := errors.Join(
		checkUnique("platform name", b.Platforms, platform.Platform.Name),
		checkUnique("graph name", b.Graphs, (*graph.Graph).Name),
		checkUnique("algorithm", algs, func(a algo.Kind) string { return string(a) }),
	); err != nil {
		return nil, err
	}
	for _, a := range algs {
		if _, ok := workload.Lookup(a); !ok {
			return nil, fmt.Errorf("core: algorithm %q is not in the workload registry", a)
		}
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

// checkUnique rejects an axis of the matrix that names one coordinate
// twice: names key the report matrix.
func checkUnique[T any](what string, axis []T, name func(T) string) error {
	seen := make(map[string]bool, len(axis))
	for _, x := range axis {
		n := name(x)
		if seen[n] {
			return fmt.Errorf("core: duplicate %s %q", what, n)
		}
		seen[n] = true
	}
	return nil
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
	// pendingCells lists the cells the load job must fill with missing
	// values if ETL terminally fails.
	pendingCells []pendingCell
}

// pendingCell is one matrix cell that some executor must run.
type pendingCell struct {
	slot int
	key  string
	// spec describes the cell: its coordinates and fingerprint, and for
	// an executor the whole hand-off.
	spec CellSpec
	// ref is the shared reference the cell validates against (nil when
	// the campaign does not validate or an executor runs the cell).
	ref *reference
	// pg is the local pair the cell runs on (nil for executor cells).
	pg *pgState
}

// buildJobs turns the matrix into scheduler jobs and the options that
// run them. Cells restored from the stamped result store (UPTODATE)
// create no job; the remainder is planned by the active execution
// path — the local pool (per (platform, graph) pair one load job
// feeding one run job per algorithm; a pair whose cells all restored
// skips its load job too, so a re-run of an unchanged matrix performs
// zero loads and zero kernel runs) or, with an Executor configured,
// one independent executor job per cell.
func (c *campaign) buildJobs() ([]sched.Job, sched.Options) {
	b := c.b
	opts := sched.Options{Parallelism: b.Parallelism, Retry: c.retry, Tracker: b.Tracker}
	shape := c.localJobs
	if b.Executor == nil {
		opts.ClassLimits = c.classLimits()
	} else {
		// Lease-pool mode: jobs spend their time blocked in ExecuteCell
		// waiting for remote capacity, so the real concurrency bound is
		// the executor's, not this process's core count. Default to one
		// goroutine per cell (the scheduler caps it at the job count) and
		// drop the per-platform class limits — platform resource budgets
		// belong to the process that loads the graph, and that is the
		// runner.
		shape = c.executorJobs
		if opts.Parallelism == 0 {
			opts.Parallelism = len(c.cells)
		}
	}
	var jobs []sched.Job
	for pi, p := range b.Platforms {
		for gi, g := range b.Graphs {
			if pending := c.pendingCellsFor(pi, p, gi, g); len(pending) > 0 {
				jobs = append(jobs, shape(p, g, pending)...)
			}
		}
	}
	return jobs, opts
}

// pendingCellsFor restores what it can of one (platform, graph) pair's
// cells and returns the rest — the cells some executor must actually
// run — with their slots, job keys, and specs resolved.
func (c *campaign) pendingCellsFor(pi int, p platform.Platform, gi int, g *graph.Graph) []pendingCell {
	var pending []pendingCell
	for ai, a := range c.algs {
		slot := (pi*len(c.b.Graphs)+gi)*len(c.algs) + ai
		spec := c.cellSpec(p, g, a, c.cellFP(p, g, a))
		if c.restoreCell(slot, spec) {
			continue
		}
		key := "cell/" + p.Name() + "/" + g.Name() + "/" + string(a)
		pending = append(pending, pendingCell{slot: slot, key: key, spec: spec})
	}
	return pending
}

// localJobs plans one (platform, graph) pair for the local pool: a load
// job (the ETL step, run once) feeding one run job per pending cell.
func (c *campaign) localJobs(p platform.Platform, g *graph.Graph, pending []pendingCell) []sched.Job {
	pg := &pgState{p: p, g: g, pendingCells: pending}
	for i := range pending {
		pending[i].pg = pg
		if c.b.Validate {
			pending[i].ref = c.shareReference(g, pending[i].spec.Algorithm)
		}
	}
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
		jobs = append(jobs, sched.Job{
			ID:    cell.key,
			Deps:  []string{loadID},
			Class: p.Name(),
			Run: func(ctx context.Context, attempt int) error {
				r, err := c.runCell(ctx, cell)
				return c.settle(ctx, cell, r, err, attempt)
			},
		})
	}
	pg.remaining.Store(int64(len(pending)))
	c.pgs = append(c.pgs, pg)
	return jobs
}

// executorJobs plans the pending cells of one (platform, graph) pair as
// independent executor jobs: no local load job exists — ETL is the
// executor's concern (a remote runner amortizes it through its own
// artifact cache) — and cells only depend on the executor having
// capacity, which it expresses by blocking ExecuteCell.
func (c *campaign) executorJobs(p platform.Platform, _ *graph.Graph, pending []pendingCell) []sched.Job {
	jobs := make([]sched.Job, 0, len(pending))
	for _, cell := range pending {
		jobs = append(jobs, sched.Job{
			ID:    cell.key,
			Class: p.Name(),
			Run: func(ctx context.Context, attempt int) error {
				r, err := c.executeCell(ctx, cell.spec, attempt)
				return c.settle(ctx, cell, r, err, attempt)
			},
		})
	}
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
