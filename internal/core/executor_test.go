package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/report"
	"graphalytics/internal/sched"
	"graphalytics/internal/telemetry"
)

// fakeExecutor scripts ExecuteCell outcomes per cell for seam tests.
type fakeExecutor struct {
	mu    sync.Mutex
	calls map[string]int
	run   func(spec CellSpec, call int) (report.RunResult, error)
}

func (f *fakeExecutor) ExecuteCell(_ context.Context, spec CellSpec) (report.RunResult, error) {
	key := spec.Platform + "/" + spec.Graph + "/" + string(spec.Algorithm)
	f.mu.Lock()
	f.calls[key]++
	call := f.calls[key]
	f.mu.Unlock()
	return f.run(spec, call)
}

func okResult(spec CellSpec) report.RunResult {
	return report.RunResult{
		Platform:   spec.Platform,
		Graph:      spec.Graph,
		Algorithm:  spec.Algorithm,
		Status:     report.StatusSuccess,
		Runtime:    1,
		GraphEdges: spec.GraphEdges,
	}
}

func executorBench(t *testing.T, exec CellExecutor, algs ...algo.Kind) *Benchmark {
	t.Helper()
	return &Benchmark{
		Platforms:  []platform.Platform{pregel.New(pregel.Options{})},
		Graphs:     []*graph.Graph{smokeGraph(t, 120, "seam")},
		Algorithms: algs,
		Executor:   exec,
	}
}

func TestExecutorSeamCollatesResults(t *testing.T) {
	exec := &fakeExecutor{calls: map[string]int{}, run: func(spec CellSpec, _ int) (report.RunResult, error) {
		if spec.CellFP.IsZero() || spec.GraphFP.IsZero() {
			t.Errorf("%s/%s: executor spec missing fingerprints", spec.Platform, string(spec.Algorithm))
		}
		if spec.Binary == "" {
			t.Errorf("executor spec missing binary version")
		}
		return okResult(spec), nil
	}}
	rep, err := executorBench(t, exec, algo.BFS, algo.CONN, algo.PR).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(rep.Results))
	}
	// Collation is by matrix coordinates regardless of completion order.
	for i, want := range []algo.Kind{algo.BFS, algo.CONN, algo.PR} {
		if rep.Results[i].Algorithm != want {
			t.Errorf("result %d = %s, want %s", i, rep.Results[i].Algorithm, want)
		}
	}
}

func TestExecutorSeamRetriesTransientErrors(t *testing.T) {
	exec := &fakeExecutor{calls: map[string]int{}, run: func(spec CellSpec, call int) (report.RunResult, error) {
		if call == 1 {
			return report.RunResult{}, fmt.Errorf("transient network burp")
		}
		return okResult(spec), nil
	}}
	b := executorBench(t, exec, algo.BFS)
	b.Retries = 2
	rep, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Status != report.StatusSuccess {
		t.Fatalf("status = %s after retry, want success (%s)", r.Status, r.Err)
	}
	if r.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", r.Attempts)
	}
	if exec.calls["pregel/seam/BFS"] != 2 {
		t.Errorf("executor called %d times, want 2", exec.calls["pregel/seam/BFS"])
	}
}

func TestExecutorSeamTerminalErrorsDoNotRetry(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want report.Status
	}{
		{"oom", fmt.Errorf("runner: %w", platform.ErrOutOfMemory), report.StatusOOM},
		{"timeout", fmt.Errorf("runner: %w", context.DeadlineExceeded), report.StatusTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exec := &fakeExecutor{calls: map[string]int{}, run: func(CellSpec, int) (report.RunResult, error) {
				return report.RunResult{}, tc.err
			}}
			b := executorBench(t, exec, algo.BFS)
			b.Retries = 3
			rep, err := b.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			r := rep.Results[0]
			if r.Status != tc.want {
				t.Fatalf("status = %s, want %s", r.Status, tc.want)
			}
			if got := exec.calls["pregel/seam/BFS"]; got != 1 {
				t.Errorf("terminal error retried: %d calls", got)
			}
		})
	}
}

func TestExecutorSeamSynthesizesMissingValue(t *testing.T) {
	exec := &fakeExecutor{calls: map[string]int{}, run: func(CellSpec, int) (report.RunResult, error) {
		return report.RunResult{}, errors.New("runner exploded")
	}}
	b := executorBench(t, exec, algo.BFS)
	rep, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Status != report.StatusError || r.Err != "runner exploded" {
		t.Fatalf("missing value not synthesized: %+v", r)
	}
	if r.GraphEdges <= 0 {
		t.Errorf("missing value lost graph metadata: %+v", r)
	}
}

func TestExecutorSeamCancelledCellsNotRecorded(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	exec := &fakeExecutor{calls: map[string]int{}, run: func(spec CellSpec, _ int) (report.RunResult, error) {
		if calls.Add(1) == 1 {
			cancel()
			return report.RunResult{}, ctx.Err()
		}
		return okResult(spec), nil
	}}
	b := executorBench(t, exec, algo.BFS, algo.CONN, algo.PR)
	b.Parallelism = 1
	_, err := b.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v", err)
	}
}

func TestExecutorSeamUptodateSkipsExecutor(t *testing.T) {
	store := openStamps(t, t.TempDir()+"/stamps.jsonl")
	exec := &fakeExecutor{calls: map[string]int{}, run: func(spec CellSpec, _ int) (report.RunResult, error) {
		return okResult(spec), nil
	}}
	b := executorBench(t, exec, algo.BFS, algo.CONN)
	b.Stamps = store
	if _, err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(exec.calls); n != 2 {
		t.Fatalf("first campaign: %d cells executed, want 2", n)
	}

	// Same campaign again: every cell is UPTODATE, the executor must
	// never be consulted.
	exec2 := &fakeExecutor{calls: map[string]int{}, run: func(spec CellSpec, _ int) (report.RunResult, error) {
		t.Error("executor called for an up-to-date cell")
		return okResult(spec), nil
	}}
	b2 := executorBench(t, exec2, algo.BFS, algo.CONN)
	b2.Graphs = b.Graphs
	b2.Platforms = b.Platforms
	b2.Stamps = store
	rep, err := b2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Provenance != report.ProvenanceUptodate {
			t.Errorf("%s: provenance %q, want uptodate", r.Cell(), r.Provenance)
		}
	}
}

// A cell that fails settles the same way whichever path ran it: run
// locally, and through an executor that returns the error or a row
// carrying it, one OOM cell gives the same report row (runtimes aside),
// resolves as one failed scheduler job and adds one to
// sched_jobs_failed_total.
func TestSeamParityFailedCell(t *testing.T) {
	g := smokeGraph(t, 150, "parity")
	oom := fmt.Errorf("injected: %w", platform.ErrOutOfMemory)
	failed := telemetry.Metrics.Counter("sched_jobs_failed_total", "jobs resolved with status failed")
	run := func(exec CellExecutor) (report.RunResult, sched.Counts, int64) {
		t.Helper()
		b := &Benchmark{
			Platforms:  []platform.Platform{&faultyPlatform{Platform: pregel.New(pregel.Options{}), fault: "oom"}},
			Graphs:     []*graph.Graph{g},
			Algorithms: []algo.Kind{algo.BFS},
			Retries:    2,
			Tracker:    sched.NewTracker(),
			Executor:   exec,
		}
		before := failed.Value()
		rep, err := b.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		r := rep.Results[0]
		r.Runtime, r.LoadTime = 0, 0
		return r, b.Tracker.Snapshot().Counts, failed.Value() - before
	}

	local, localCounts, localFailed := run(nil)
	if local.Status != report.StatusOOM || local.Attempts != 1 {
		t.Fatalf("local cell: status %s, attempts %d; want oom, 1", local.Status, local.Attempts)
	}
	// The local pool's one extra job, the pair's load, succeeded.
	localCounts.Total--
	localCounts.Done--
	if localCounts.Failed != 1 || localFailed != 1 {
		t.Errorf("local: %+v, sched_jobs_failed_total +%d; want one failed job", localCounts, localFailed)
	}
	for name, exec := range map[string]func(CellSpec) (report.RunResult, error){
		"error": func(CellSpec) (report.RunResult, error) { return report.RunResult{}, oom },
		"row":   func(spec CellSpec) (report.RunResult, error) { return MissingValue(spec, oom), nil },
	} {
		t.Run(name, func(t *testing.T) {
			fake := &fakeExecutor{calls: map[string]int{}, run: func(spec CellSpec, _ int) (report.RunResult, error) {
				return exec(spec)
			}}
			r, counts, delta := run(fake)
			if !reflect.DeepEqual(r, local) {
				t.Errorf("rows differ:\n executor %+v\n local    %+v", r, local)
			}
			if counts != localCounts || delta != localFailed {
				t.Errorf("executor: %+v, sched_jobs_failed_total +%d; local: %+v, +%d",
					counts, delta, localCounts, localFailed)
			}
		})
	}
}
