package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/mapreduce"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/report"
)

// countingPlatform wraps a platform and counts ETL and run executions,
// so resume and retry tests can assert exactly how much work re-ran.
type countingPlatform struct {
	platform.Platform
	loads atomic.Int64
	runs  atomic.Int64
	// failFirst injects a transient error into the first N algorithm
	// executions (scheduler-retryable, unlike OOM/timeout).
	failFirst int64
}

func (c *countingPlatform) LoadGraph(g *graph.Graph) (platform.Loaded, error) {
	c.loads.Add(1)
	loaded, err := c.Platform.LoadGraph(g)
	if err != nil {
		return nil, err
	}
	return &countingLoaded{Loaded: loaded, p: c}, nil
}

type countingLoaded struct {
	platform.Loaded
	p *countingPlatform
}

var errFlaky = errors.New("injected transient failure")

func (l *countingLoaded) Run(ctx context.Context, kind algo.Kind, params algo.Params) (*platform.Result, error) {
	n := l.p.runs.Add(1)
	if n <= l.p.failFirst {
		return nil, errFlaky
	}
	return l.Loaded.Run(ctx, kind, params)
}

// sameCell compares everything about two results except timings and
// monitor samples — the acceptance bar for schedule independence.
func sameCell(t *testing.T, seq, par report.RunResult) {
	t.Helper()
	if seq.Platform != par.Platform || seq.Graph != par.Graph || seq.Algorithm != par.Algorithm {
		t.Fatalf("cell coordinates diverge: %s/%s/%s vs %s/%s/%s",
			seq.Platform, seq.Graph, seq.Algorithm, par.Platform, par.Graph, par.Algorithm)
	}
	id := seq.Platform + "/" + seq.Graph + "/" + string(seq.Algorithm)
	if seq.Status != par.Status {
		t.Errorf("%s: status %s vs %s", id, seq.Status, par.Status)
	}
	if seq.Err != par.Err {
		t.Errorf("%s: err %q vs %q", id, seq.Err, par.Err)
	}
	if seq.GraphEdges != par.GraphEdges {
		t.Errorf("%s: edges %d vs %d", id, seq.GraphEdges, par.GraphEdges)
	}
	if seq.Validation.Valid != par.Validation.Valid {
		t.Errorf("%s: valid %v vs %v", id, seq.Validation.Valid, par.Validation.Valid)
	}
	// Every counter but WorkerBusy, a timing, belongs to the cell alone.
	seq.Counters.WorkerBusy, par.Counters.WorkerBusy = nil, nil
	if !reflect.DeepEqual(seq.Counters, par.Counters) {
		t.Errorf("%s: counters diverge:\n seq %+v\n par %+v", id, seq.Counters, par.Counters)
	}
}

// The tentpole acceptance test: a Parallelism-4 campaign over
// 2 platforms × 2 graphs × 5 algorithms produces a report with
// identical results (modulo timings) in identical order to the
// sequential campaign. Run under -race in CI, this also proves the
// scheduler's cell bookkeeping is data-race free.
func TestParallelMatchesSequential(t *testing.T) {
	graphs := []*graph.Graph{
		smokeGraph(t, 250, "g-one"),
		smokeGraph(t, 180, "g-two"),
	}
	build := func(parallelism int) *Benchmark {
		return &Benchmark{
			Platforms: []platform.Platform{
				pregel.New(pregel.Options{}),
				mapreduce.New(mapreduce.Options{RoundOverhead: -1}),
			},
			Graphs:      graphs,
			Validate:    true,
			Params:      algo.Params{Source: 0, Seed: 9, EvoNewVertices: 4},
			Parallelism: parallelism,
		}
	}
	seq, err := build(1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	par, err := build(4).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * len(algo.Kinds)
	if len(seq.Results) != want || len(par.Results) != want {
		t.Fatalf("results: seq %d, par %d, want %d", len(seq.Results), len(par.Results), want)
	}
	for i := range seq.Results {
		sameCell(t, seq.Results[i], par.Results[i])
	}
}

func TestRepetitionStatistics(t *testing.T) {
	b := &Benchmark{
		Platforms:  []platform.Platform{pregel.New(pregel.Options{})},
		Graphs:     []*graph.Graph{smokeGraph(t, 200, "reps")},
		Algorithms: []algo.Kind{algo.BFS, algo.CONN},
		Reps:       3,
		Warmup:     1,
	}
	rep, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Status != report.StatusSuccess {
			t.Fatalf("%s: %s (%s)", r.Algorithm, r.Status, r.Err)
		}
		s := r.Reps
		if s == nil {
			t.Fatalf("%s: no repetition statistics", r.Algorithm)
		}
		if s.Warmup != 1 || s.Reps != 3 || len(s.Runtimes) != 4 {
			t.Errorf("%s: shape = %d warmup, %d reps, %d runtimes", r.Algorithm, s.Warmup, s.Reps, len(s.Runtimes))
		}
		if s.Min <= 0 || s.Min > s.Mean || s.Mean > s.Max {
			t.Errorf("%s: min/mean/max not ordered: %v/%v/%v", r.Algorithm, s.Min, s.Mean, s.Max)
		}
		if s.Stddev < 0 {
			t.Errorf("%s: negative stddev", r.Algorithm)
		}
		if s.First != s.Runtimes[0] {
			t.Errorf("%s: first-run split broken: %v vs %v", r.Algorithm, s.First, s.Runtimes[0])
		}
		if r.Runtime != s.Mean {
			t.Errorf("%s: Runtime %v is not the repetition mean %v", r.Algorithm, r.Runtime, s.Mean)
		}
	}
}

func TestSingleRunHasNoRepStats(t *testing.T) {
	b := &Benchmark{
		Platforms:  []platform.Platform{pregel.New(pregel.Options{})},
		Graphs:     []*graph.Graph{smokeGraph(t, 200, "single")},
		Algorithms: []algo.Kind{algo.BFS},
	}
	rep, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Reps != nil {
		t.Error("single-run cell must not carry repetition statistics")
	}
}

// TestResumeSkipsFinishedCells interrupts a campaign mid-way and
// verifies the stamped result store makes the re-run execute only the
// cells the first run did not finish.
func TestResumeSkipsFinishedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stamps.jsonl")
	g := smokeGraph(t, 200, "resume")

	// First campaign: cancel after two finished cells.
	cp1 := &countingPlatform{Platform: pregel.New(pregel.Options{})}
	ctx, cancel := context.WithCancel(context.Background())
	finished := 0
	b1 := &Benchmark{
		Platforms:   []platform.Platform{cp1},
		Graphs:      []*graph.Graph{g},
		Parallelism: 1,
		Stamps:      openStamps(t, path),
		Progress: func(report.RunResult) {
			if finished++; finished == 2 {
				cancel()
			}
		},
	}
	if _, err := b1.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign err = %v, want context.Canceled", err)
	}

	stored := openStamps(t, path).Len()
	if stored < 2 || stored >= len(algo.Kinds) {
		t.Fatalf("stamped cells = %d, want partial progress", stored)
	}

	// Resumed campaign: only the unfinished cells may execute.
	cp2 := &countingPlatform{Platform: pregel.New(pregel.Options{})}
	b2 := &Benchmark{
		Platforms:   []platform.Platform{cp2},
		Graphs:      []*graph.Graph{g},
		Parallelism: 1,
		Stamps:      openStamps(t, path),
	}
	rep, err := b2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(algo.Kinds) {
		t.Fatalf("resumed report has %d results, want %d", len(rep.Results), len(algo.Kinds))
	}
	for i, r := range rep.Results {
		if r.Status != report.StatusSuccess {
			t.Errorf("cell %d (%s): %s (%s)", i, r.Algorithm, r.Status, r.Err)
		}
		if r.Algorithm != algo.Kinds[i] {
			t.Errorf("cell %d out of order: %s", i, r.Algorithm)
		}
	}
	uptodate := 0
	for _, r := range rep.Results {
		if r.Provenance == report.ProvenanceUptodate {
			uptodate++
		}
	}
	if uptodate != stored {
		t.Errorf("resumed report marks %d cells uptodate, want %d", uptodate, stored)
	}
	if got, want := cp2.runs.Load(), int64(len(algo.Kinds)-stored); got != want {
		t.Errorf("resumed campaign executed %d cells, want %d (store had %d)", got, want, stored)
	}

	// A third run over the complete store re-executes nothing, not even
	// the ETL.
	cp3 := &countingPlatform{Platform: pregel.New(pregel.Options{})}
	b3 := &Benchmark{
		Platforms: []platform.Platform{cp3},
		Graphs:    []*graph.Graph{g},
		Stamps:    openStamps(t, path),
	}
	rep3, err := b3.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Results) != len(algo.Kinds) {
		t.Fatalf("third report has %d results", len(rep3.Results))
	}
	if cp3.loads.Load() != 0 || cp3.runs.Load() != 0 {
		t.Errorf("fully stamped campaign still executed %d loads, %d runs", cp3.loads.Load(), cp3.runs.Load())
	}
}

func TestTransientFailureRetried(t *testing.T) {
	cp := &countingPlatform{Platform: pregel.New(pregel.Options{}), failFirst: 1}
	b := &Benchmark{
		Platforms:  []platform.Platform{cp},
		Graphs:     []*graph.Graph{smokeGraph(t, 200, "flaky")},
		Algorithms: []algo.Kind{algo.BFS},
		Retries:    2,
	}
	rep, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Status != report.StatusSuccess {
		t.Fatalf("status = %s (%s), want success after retry", r.Status, r.Err)
	}
	if r.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", r.Attempts)
	}
}

func TestTransientFailureWithoutRetriesFails(t *testing.T) {
	cp := &countingPlatform{Platform: pregel.New(pregel.Options{}), failFirst: 1}
	b := &Benchmark{
		Platforms:  []platform.Platform{cp},
		Graphs:     []*graph.Graph{smokeGraph(t, 200, "flaky2")},
		Algorithms: []algo.Kind{algo.BFS},
	}
	rep, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Status != report.StatusError {
		t.Errorf("status = %s, want error", rep.Results[0].Status)
	}
}

func TestOOMNotRetried(t *testing.T) {
	// An OOM load is terminal: retries must not re-attempt the ETL.
	inner := &countingPlatform{Platform: pregel.New(pregel.Options{MemoryBudget: 16})}
	b := &Benchmark{
		Platforms: []platform.Platform{inner},
		Graphs:    []*graph.Graph{smokeGraph(t, 500, "oom")},
		Retries:   3,
	}
	rep, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if inner.loads.Load() != 1 {
		t.Errorf("OOM load attempted %d times, want 1", inner.loads.Load())
	}
	for _, r := range rep.Results {
		if r.Status != report.StatusOOM {
			t.Errorf("%s: status = %s, want oom", r.Algorithm, r.Status)
		}
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	g := smokeGraph(t, 100, "dup")
	b := &Benchmark{
		Platforms: []platform.Platform{pregel.New(pregel.Options{}), pregel.New(pregel.Options{})},
		Graphs:    []*graph.Graph{g},
	}
	if _, err := b.Run(context.Background()); err == nil {
		t.Error("duplicate platform names must be rejected")
	}
	b2 := &Benchmark{
		Platforms: []platform.Platform{pregel.New(pregel.Options{})},
		Graphs:    []*graph.Graph{g, g},
	}
	if _, err := b2.Run(context.Background()); err == nil {
		t.Error("duplicate graph names must be rejected")
	}
}

// TestBudgetedPlatformSerializes verifies the platform concurrency
// hint reaches the scheduler: a memory-budgeted engine never hosts two
// concurrent jobs even in a wide parallel campaign.
func TestBudgetedPlatformSerializes(t *testing.T) {
	if platform.ConcurrencyLimitOf(pregel.New(pregel.Options{MemoryBudget: 1 << 30})) != 1 {
		t.Fatal("budgeted pregel must hint limit 1")
	}
	if platform.ConcurrencyLimitOf(pregel.New(pregel.Options{})) != 0 {
		t.Fatal("unbudgeted pregel must be unlimited")
	}
	b := &Benchmark{
		Platforms: []platform.Platform{
			pregel.New(pregel.Options{MemoryBudget: 1 << 30}),
			mapreduce.New(mapreduce.Options{RoundOverhead: -1}),
		},
		Graphs:      []*graph.Graph{smokeGraph(t, 200, "ser-a"), smokeGraph(t, 150, "ser-b")},
		Parallelism: 8,
	}
	rep, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Status != report.StatusSuccess {
			t.Errorf("%s/%s/%s: %s (%s)", r.Platform, r.Graph, r.Algorithm, r.Status, r.Err)
		}
	}
}

func TestParallelCampaignIsFasterShape(t *testing.T) {
	// Not a timing assertion (CI noise), just the structural claim: a
	// parallel campaign over many cells completes and the report spans
	// every coordinate exactly once.
	graphs := []*graph.Graph{smokeGraph(t, 150, "w1"), smokeGraph(t, 120, "w2")}
	b := &Benchmark{
		Platforms: []platform.Platform{
			pregel.New(pregel.Options{}),
			mapreduce.New(mapreduce.Options{RoundOverhead: -1}),
		},
		Graphs:      graphs,
		Parallelism: 4,
		Timeout:     time.Minute,
	}
	rep, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, r := range rep.Results {
		seen[r.Platform+"/"+r.Graph+"/"+string(r.Algorithm)]++
	}
	if len(seen) != 2*2*len(algo.Kinds) {
		t.Fatalf("distinct cells = %d", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("cell %s appears %d times", k, n)
		}
	}
}

func TestNegativeWarmupClamped(t *testing.T) {
	b := &Benchmark{
		Platforms:  []platform.Platform{pregel.New(pregel.Options{})},
		Graphs:     []*graph.Graph{smokeGraph(t, 150, "negwarm")},
		Algorithms: []algo.Kind{algo.BFS},
		Warmup:     -3,
	}
	rep, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Status != report.StatusSuccess {
		t.Errorf("status = %s", rep.Results[0].Status)
	}
}

func TestDuplicateAlgorithmsRejected(t *testing.T) {
	b := &Benchmark{
		Platforms:  []platform.Platform{pregel.New(pregel.Options{})},
		Graphs:     []*graph.Graph{smokeGraph(t, 150, "dupalg")},
		Algorithms: []algo.Kind{algo.BFS, algo.BFS},
	}
	if _, err := b.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "duplicate algorithm") {
		t.Errorf("err = %v, want duplicate algorithm rejection", err)
	}
}
