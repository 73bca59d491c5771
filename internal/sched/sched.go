// Package sched is the campaign scheduler of the benchmark harness: a
// dependency-aware job runner in the build-graph style. A campaign is
// a DAG of jobs (ETL/load jobs feeding per-cell run jobs); the
// scheduler executes it on a bounded worker pool with per-class
// concurrency limits (so memory-budgeted platforms can serialize their
// own jobs while others proceed), a retry policy that distinguishes
// transient from terminal failures. Resuming an interrupted campaign is
// the caller's concern: it leaves finished work out of the job set.
//
// The scheduler guarantees: dependencies complete before dependents
// start; dependents of a failed job are skipped (not run); the full
// job set is accounted for in the returned Results regardless of
// schedule; and with Parallelism = 1 jobs run one at a time in a
// deterministic (index) order.
package sched

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"time"

	"graphalytics/internal/telemetry"
)

// Job is one schedulable unit of campaign work.
type Job struct {
	// ID uniquely names the job within one campaign.
	ID string
	// Deps lists the IDs of jobs that must succeed before this one runs.
	Deps []string
	// Class optionally assigns the job to a concurrency class; jobs in
	// the same class are additionally bounded by Options.ClassLimits.
	Class string
	// Run performs the work. attempt counts from 1 so a job can tell a
	// retry from a first try (and, knowing the policy, a final attempt).
	Run func(ctx context.Context, attempt int) error
}

// RetryPolicy bounds re-execution of failed jobs.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per job (<= 1 disables
	// retries).
	MaxAttempts int
	// Retryable classifies errors; nil retries nothing. Terminal states
	// (out-of-memory, deadline exceeded) should return false.
	Retryable func(error) bool
}

// WillRetry reports whether a job that failed with err on the given
// attempt (counting from 1) gets another try under the policy. Jobs
// that must act only on their last attempt share this predicate with
// the scheduler instead of re-deriving it.
func (p RetryPolicy) WillRetry(err error, attempt int) bool {
	return err != nil && attempt < p.MaxAttempts && p.Retryable != nil && p.Retryable(err)
}

// Status classifies how a job finished.
type Status string

// Job outcomes.
const (
	// Done: Run returned nil (possibly after retries).
	Done Status = "done"
	// Failed: Run returned a non-retryable error or exhausted retries.
	Failed Status = "failed"
	// SkippedDep: a (transitive) dependency failed; Run never executed.
	SkippedDep Status = "skipped-dep"
)

// JobResult is the scheduler's account of one job.
type JobResult struct {
	ID       string
	Status   Status
	Err      error
	Attempts int
}

// Results maps job ID → outcome for every job of the campaign.
type Results map[string]JobResult

// Options configures a campaign execution.
type Options struct {
	// Parallelism bounds concurrently running jobs (0 = NumCPU).
	Parallelism int
	// ClassLimits bounds concurrent jobs per class (absent/0 =
	// unlimited within Parallelism).
	ClassLimits map[string]int
	// Retry is the re-execution policy for failed jobs.
	Retry RetryPolicy
	// Tracker, when non-nil, observes the live schedule (per-job state,
	// per-worker occupation, queue wait, crude ETA) and serves progress
	// snapshots — the campaign "/status" view.
	Tracker *Tracker
}

// Run executes the job DAG to completion and returns per-job results.
// It returns an error for a malformed DAG or a cancelled context; job
// failures are reported in Results, not as an error, so one broken
// cell never aborts a campaign.
func Run(ctx context.Context, jobs []Job, opts Options) (Results, error) {
	d, err := buildDAG(jobs)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}

	s := &state{
		dag:     d,
		opts:    opts,
		workers: workers,
		results: make(Results, len(jobs)),
		doomed:  make([]error, len(jobs)),
		readyAt: make([]time.Time, len(jobs)),
		active:  make(map[string]int),
	}
	opts.Tracker.begin(jobs, workers)
	defer opts.Tracker.finish()
	slog.Info("sched: campaign start", "jobs", len(jobs), "workers", workers)
	return s.run(ctx)
}

// state is the single-goroutine scheduling loop's mutable view of the
// campaign. Workers only ever see job indices and report completions;
// all bookkeeping (ready queue, class counters, cascades) stays here.
type state struct {
	dag     *dag
	opts    Options
	workers int
	results Results
	// doomed[i] holds the first failed-dependency error for job i.
	doomed []error
	// ready holds dispatchable job indices, kept sorted: the scheduler
	// always starts the lowest-index eligible job, so Parallelism = 1
	// reproduces the sequential nested-loop schedule exactly.
	ready []int
	// readyAt records when each job entered the ready queue, so the
	// trace can split queue wait from execution time.
	readyAt []time.Time
	// active counts running jobs per class.
	active   map[string]int
	inflight int
	resolved int
}

// completion is a worker's report for one executed job.
type completion struct {
	idx      int
	err      error
	attempts int
}

// dispatched is what a worker receives per job: the job index and how
// long the job sat in the ready queue before a slot opened.
type dispatched struct {
	idx       int
	queueWait time.Duration
}

func (s *state) run(ctx context.Context) (Results, error) {
	jobs := s.dag.jobs
	// Buffered so neither side ever blocks: at most len(jobs) dispatches
	// and completions flow through each channel.
	dispatch := make(chan dispatched, len(jobs))
	completed := make(chan completion, len(jobs))
	for w := 0; w < s.workers; w++ {
		go func(worker int) {
			for d := range dispatch {
				job := jobs[d.idx]
				s.opts.Tracker.start(d.idx, worker, d.queueWait)
				sp := telemetry.StartSpanT("sched", "job:"+job.ID, worker)
				sp.SetAttr("class", job.Class)
				sp.SetAttr("queue_wait_us", d.queueWait)
				execStart := time.Now()
				err, attempts := runWithRetry(ctx, job, s.opts.Retry)
				exec := time.Since(execStart)
				sp.SetAttr("attempts", attempts)
				if err != nil {
					sp.SetAttr("error", err.Error())
				}
				sp.End()
				telemetry.Metrics.Histogram("sched_queue_wait_seconds",
					"time jobs spent ready but undispatched", telemetry.DurationBuckets).
					Observe(d.queueWait.Seconds())
				telemetry.Metrics.Histogram("sched_execute_seconds",
					"job execution time (including retries)", telemetry.DurationBuckets).
					Observe(exec.Seconds())
				completed <- completion{idx: d.idx, err: err, attempts: attempts}
			}
		}(w)
	}
	defer close(dispatch)

	// Seed: jobs with no dependencies are ready.
	for i, n := range s.dag.indegree {
		if n == 0 {
			s.enqueue(i)
		}
	}
	s.dispatchReady(dispatch)

	for s.resolved < len(jobs) {
		if s.inflight == 0 {
			// Nothing running and nothing resolvable: the DAG validated
			// acyclic, so this cannot happen; guard against livelock.
			return nil, fmt.Errorf("sched: stalled with %d/%d jobs resolved", s.resolved, len(jobs))
		}
		select {
		case c := <-completed:
			s.inflight--
			s.active[jobs[c.idx].Class]--
			if c.err != nil {
				s.resolve(c.idx, JobResult{ID: jobs[c.idx].ID, Status: Failed, Err: c.err, Attempts: c.attempts})
			} else {
				s.resolve(c.idx, JobResult{ID: jobs[c.idx].ID, Status: Done, Attempts: c.attempts})
			}
			s.dispatchReady(dispatch)
		case <-ctx.Done():
			// Drain running jobs (they observe ctx themselves) so no
			// worker writes after we return.
			for s.inflight > 0 {
				<-completed
				s.inflight--
			}
			return nil, ctx.Err()
		}
	}
	return s.results, nil
}

// enqueue admits a dependency-free job: doomed jobs resolve
// immediately, everything else joins the ready queue in index order.
func (s *state) enqueue(i int) {
	job := s.dag.jobs[i]
	if s.doomed[i] != nil {
		s.resolve(i, JobResult{ID: job.ID, Status: SkippedDep, Err: s.doomed[i]})
		return
	}
	at := sort.SearchInts(s.ready, i)
	s.ready = append(s.ready, 0)
	copy(s.ready[at+1:], s.ready[at:])
	s.ready[at] = i
	s.readyAt[i] = time.Now()
	s.opts.Tracker.ready(i)
}

// dispatchReady starts ready jobs while worker slots remain, always
// picking the lowest-index job whose class has capacity. Jobs whose
// class is saturated (or that exceed the worker count) stay in the
// ready queue for the next completion to reconsider.
func (s *state) dispatchReady(dispatch chan<- dispatched) {
	for s.inflight < s.workers {
		picked := -1
		for k, i := range s.ready {
			class := s.dag.jobs[i].Class
			if limit, ok := s.opts.ClassLimits[class]; ok && limit > 0 && s.active[class] >= limit {
				continue
			}
			picked = k
			break
		}
		if picked < 0 {
			return
		}
		i := s.ready[picked]
		s.ready = append(s.ready[:picked], s.ready[picked+1:]...)
		s.active[s.dag.jobs[i].Class]++
		s.inflight++
		dispatch <- dispatched{idx: i, queueWait: time.Since(s.readyAt[i])}
	}
}

// resolve records a job outcome and cascades to dependents: a success
// unblocks them, a failure dooms them. Cascades are
// processed inline, so by the time resolve returns every transitively
// affected job is accounted for.
func (s *state) resolve(i int, r JobResult) {
	s.results[r.ID] = r
	s.resolved++
	telemetry.Metrics.Counter("sched_jobs_"+statusMetric(r.Status)+"_total",
		"jobs resolved with status "+string(r.Status)).Inc()
	s.opts.Tracker.resolve(i, r)
	switch r.Status {
	case Failed:
		slog.Warn("sched: job failed",
			"job", r.ID, "class", s.dag.jobs[i].Class, "attempts", r.Attempts, "err", r.Err)
	case SkippedDep:
		slog.Debug("sched: job skipped (dependency failed)", "job", r.ID, "err", r.Err)
	default:
		slog.Debug("sched: job resolved", "job", r.ID, "status", string(r.Status), "attempts", r.Attempts)
	}
	ok := r.Status == Done
	for _, dep := range s.dag.dependents[i] {
		if !ok && s.doomed[dep] == nil {
			s.doomed[dep] = fmt.Errorf("sched: dependency %q %s: %w", r.ID, r.Status, firstErr(r.Err, s.doomed[i]))
		}
		if s.dag.indegree[dep]--; s.dag.indegree[dep] == 0 {
			s.enqueue(dep)
		}
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return fmt.Errorf("dependency failed")
}

// statusMetric maps a job status to a metric-name-safe token.
func statusMetric(s Status) string {
	switch s {
	case Done:
		return "done"
	case Failed:
		return "failed"
	case SkippedDep:
		return "skipped_dep"
	}
	return "unknown"
}

// runWithRetry executes one job under the retry policy and reports the
// final error and the number of attempts made.
func runWithRetry(ctx context.Context, job Job, policy RetryPolicy) (error, int) {
	for attempt := 1; ; attempt++ {
		err := job.Run(ctx, attempt)
		if err == nil || ctx.Err() != nil {
			return err, attempt
		}
		if !policy.WillRetry(err, attempt) {
			return err, attempt
		}
		telemetry.Metrics.Counter("sched_job_retries_total",
			"job attempts re-run after a retryable failure").Inc()
		slog.Debug("sched: retrying job", "job", job.ID, "attempt", attempt, "err", err.Error())
	}
}
