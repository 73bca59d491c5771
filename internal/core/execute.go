package core

import (
	"context"
	"fmt"
	"time"

	"graphalytics/internal/monitor"
	"graphalytics/internal/par"
	"graphalytics/internal/platform"
	"graphalytics/internal/report"
	"graphalytics/internal/telemetry"
	"graphalytics/internal/validation"
)

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
		if !c.retry.WillRetry(err, attempt) {
			for _, cell := range pg.pendingCells {
				r := MissingValue(cell.spec, err)
				r.LoadTime, r.Attempts = pg.loadTime, attempt
				c.finishCell(cell, r)
			}
		}
		return err
	}
	pg.loaded = loaded
	return nil
}

// executeCell hands one cell to the executor. A row returned with a nil
// error may still record a failure; its status then stands for the
// error (errOf), so a row that crossed a process boundary settles
// exactly as a local one.
func (c *campaign) executeCell(ctx context.Context, spec CellSpec, attempt int) (report.RunResult, error) {
	sp := telemetry.StartSpan("cell", "execute:"+spec.Platform+"/"+spec.Graph+"/"+string(spec.Algorithm))
	sp.SetAttr("attempt", attempt)
	r, err := c.b.Executor.ExecuteCell(ctx, spec)
	if err == nil && r.Platform != "" {
		err = errOf(r.Status, r.Err)
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return r, err
}

// settle is the one outcome path of a cell attempt, local or executor.
// A cancelled cell is never recorded (the resumed campaign must re-run
// it) and a retryable error goes back to the scheduler. The final
// attempt records the row — a missing value if the attempt produced
// none — unloads the local pair after its last cell, and returns the
// error, so a failed cell resolves as a failed job on either path.
func (c *campaign) settle(ctx context.Context, cell pendingCell, r report.RunResult, err error, attempt int) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if c.retry.WillRetry(err, attempt) {
		return err
	}
	if r.Platform == "" {
		r = MissingValue(cell.spec, err)
	}
	r.Attempts = attempt
	c.finishCell(cell, r)
	if cell.pg != nil && cell.pg.remaining.Add(-1) == 0 {
		cell.pg.loaded.Close()
	}
	return err
}

// runCell executes the repetition sequence of one cell: Warmup untimed
// executions, then max(1, Reps) timed repetitions. The returned error
// is the raw execution error (nil on success) for the retry policy;
// the RunResult is complete either way.
func (c *campaign) runCell(ctx context.Context, cell pendingCell) (report.RunResult, error) {
	b, pg, a := c.b, cell.pg, cell.spec.Algorithm
	r := report.RunResult{
		Platform: pg.p.Name(), Graph: pg.g.Name(), Algorithm: a,
		LoadTime: pg.loadTime, GraphEdges: pg.g.NumEdges(),
	}
	if pg.etlCached {
		// The kernels run live, but LoadTime measured an artifact
		// restore, not the platform's ETL — reports must say so.
		r.Provenance = report.ProvenanceETLCache
	}
	reps, warmup := max(b.Reps, 1), max(b.Warmup, 0)
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
