package sched

import (
	"sort"
	"sync"
	"time"
)

// JobState is the live scheduling state of one job, as exposed by the
// status Tracker (coarser than the final Status: it also covers jobs
// that have not resolved yet).
type JobState string

// Live job states.
const (
	StatePending JobState = "pending" // waiting on dependencies
	StateReady   JobState = "ready"   // dispatchable, waiting for a slot
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
	StateSkipped JobState = "skipped" // dependency failure
)

// Tracker observes one campaign's schedule and serves point-in-time
// snapshots of its progress — the live "/status" view. A nil *Tracker
// is valid and ignores every observation, so the scheduler hot path
// never branches on configuration. Safe for concurrent use: the
// scheduler writes from its workers and scheduling goroutine while any
// number of HTTP handlers snapshot.
type Tracker struct {
	mu      sync.Mutex
	started time.Time
	workers int
	jobs    []trackedJob
	index   map[string]int
	// perWorker[w] is the index of the job worker w is executing (-1 =
	// idle).
	perWorker []int
	counts    Counts
	// Sums for crude averages/ETA.
	queueWaitSum time.Duration
	queueWaitN   int
	execSum      time.Duration
	execN        int
	finished     bool
}

type trackedJob struct {
	id        string
	class     string
	state     JobState
	worker    int
	queueWait time.Duration
	startedAt time.Time
	attempts  int
}

// Counts is the per-state job tally of a snapshot.
type Counts struct {
	Total   int `json:"total"`
	Pending int `json:"pending"`
	Ready   int `json:"ready"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Skipped int `json:"skipped"`
}

// WorkerStatus is one worker's current occupation.
type WorkerStatus struct {
	Worker int    `json:"worker"`
	JobID  string `json:"job_id,omitempty"` // empty = idle
	Class  string `json:"class,omitempty"`
	// RunningFor is how long the current job has been executing.
	RunningFor time.Duration `json:"running_for_ns,omitempty"`
}

// RunningJob is one in-flight job in a snapshot.
type RunningJob struct {
	ID         string        `json:"id"`
	Class      string        `json:"class,omitempty"`
	Worker     int           `json:"worker"`
	QueueWait  time.Duration `json:"queue_wait_ns"`
	RunningFor time.Duration `json:"running_for_ns"`
	Attempts   int           `json:"attempts"`
}

// Snapshot is a point-in-time view of campaign progress.
type Snapshot struct {
	Started  time.Time      `json:"started"`
	Elapsed  time.Duration  `json:"elapsed_ns"`
	Finished bool           `json:"finished"`
	Counts   Counts         `json:"counts"`
	Workers  []WorkerStatus `json:"workers"`
	Running  []RunningJob   `json:"running"`
	// MeanQueueWait / MeanExec average over jobs dispatched / resolved
	// so far.
	MeanQueueWait time.Duration `json:"mean_queue_wait_ns"`
	MeanExec      time.Duration `json:"mean_exec_ns"`
	// ETA is a crude remaining-time estimate: mean execution time of
	// resolved jobs × unresolved jobs ÷ workers. Zero until at least
	// one job has resolved.
	ETA time.Duration `json:"eta_ns"`
}

// NewTracker returns an empty tracker; pass it in Options.Tracker (and
// keep a reference to serve snapshots).
func NewTracker() *Tracker { return &Tracker{} }

// begin resets the tracker for a campaign run.
func (t *Tracker) begin(jobs []Job, workers int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.started = time.Now()
	t.workers = workers
	t.finished = false
	t.jobs = make([]trackedJob, len(jobs))
	t.index = make(map[string]int, len(jobs))
	for i, j := range jobs {
		t.jobs[i] = trackedJob{id: j.ID, class: j.Class, state: StatePending, worker: -1}
		t.index[j.ID] = i
	}
	t.perWorker = make([]int, workers)
	for w := range t.perWorker {
		t.perWorker[w] = -1
	}
	t.counts = Counts{Total: len(jobs), Pending: len(jobs)}
	t.queueWaitSum, t.queueWaitN, t.execSum, t.execN = 0, 0, 0, 0
}

// ready marks a job dispatchable.
func (t *Tracker) ready(idx int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.transition(idx, StateReady)
}

// start marks a job as executing on a worker.
func (t *Tracker) start(idx, worker int, queueWait time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.transition(idx, StateRunning)
	j := &t.jobs[idx]
	j.worker = worker
	j.queueWait = queueWait
	j.startedAt = time.Now()
	if worker >= 0 && worker < len(t.perWorker) {
		t.perWorker[worker] = idx
	}
	t.queueWaitSum += queueWait
	t.queueWaitN++
}

// resolve records a job's final outcome (from any prior state: skipped
// jobs resolve without ever running).
func (t *Tracker) resolve(idx int, r JobResult) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	j := &t.jobs[idx]
	if j.state == StateRunning {
		t.execSum += time.Since(j.startedAt)
		t.execN++
		if j.worker >= 0 && j.worker < len(t.perWorker) && t.perWorker[j.worker] == idx {
			t.perWorker[j.worker] = -1
		}
	}
	j.attempts = r.Attempts
	switch r.Status {
	case Done:
		t.transition(idx, StateDone)
	case Failed:
		t.transition(idx, StateFailed)
	default: // SkippedDep
		t.transition(idx, StateSkipped)
	}
}

// finish marks the campaign complete.
func (t *Tracker) finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.finished = true
	t.mu.Unlock()
}

// transition moves a job between states, keeping counts consistent.
// Caller holds the lock.
func (t *Tracker) transition(idx int, to JobState) {
	j := &t.jobs[idx]
	t.countOf(j.state, -1)
	j.state = to
	t.countOf(to, +1)
}

func (t *Tracker) countOf(s JobState, d int) {
	switch s {
	case StatePending:
		t.counts.Pending += d
	case StateReady:
		t.counts.Ready += d
	case StateRunning:
		t.counts.Running += d
	case StateDone:
		t.counts.Done += d
	case StateFailed:
		t.counts.Failed += d
	case StateSkipped:
		t.counts.Skipped += d
	}
}

// Snapshot returns the current progress view. Safe to call at any time,
// including before the campaign starts (zero-value snapshot) and after
// it finishes.
func (t *Tracker) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	s := Snapshot{
		Started:  t.started,
		Finished: t.finished,
		Counts:   t.counts,
	}
	if !t.started.IsZero() {
		s.Elapsed = now.Sub(t.started)
	}
	s.Workers = make([]WorkerStatus, len(t.perWorker))
	for w, idx := range t.perWorker {
		ws := WorkerStatus{Worker: w}
		if idx >= 0 {
			j := t.jobs[idx]
			ws.JobID = j.id
			ws.Class = j.class
			ws.RunningFor = now.Sub(j.startedAt)
		}
		s.Workers[w] = ws
	}
	for idx, j := range t.jobs {
		if j.state != StateRunning {
			continue
		}
		s.Running = append(s.Running, RunningJob{
			ID: j.id, Class: j.class, Worker: j.worker,
			QueueWait: j.queueWait, RunningFor: now.Sub(j.startedAt),
			Attempts: t.jobs[idx].attempts,
		})
	}
	sort.Slice(s.Running, func(i, k int) bool { return s.Running[i].ID < s.Running[k].ID })
	if t.queueWaitN > 0 {
		s.MeanQueueWait = t.queueWaitSum / time.Duration(t.queueWaitN)
	}
	if t.execN > 0 {
		s.MeanExec = t.execSum / time.Duration(t.execN)
		unresolved := t.counts.Total - t.counts.Done - t.counts.Failed - t.counts.Skipped
		if unresolved > 0 && t.workers > 0 {
			s.ETA = s.MeanExec * time.Duration(unresolved) / time.Duration(t.workers)
		}
	}
	return s
}
