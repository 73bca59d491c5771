package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/artifact"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/graphdb"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/report"
	"graphalytics/internal/stamp"
	"graphalytics/internal/telemetry"
)

// StampConfig forwards the wrapped platform's config stamp, so stamped
// campaigns over a countingPlatform fingerprint the real configuration
// instead of falling back to the wrapper's name.
func (c *countingPlatform) StampConfig() string { return platform.StampConfigOf(c.Platform) }

func openStamps(t *testing.T, path string) *stamp.Store {
	t.Helper()
	s, err := stamp.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// The tentpole acceptance test: a second identical campaign over a
// stamped result store executes zero ETL and zero kernels, yet renders
// a complete report with full runtimes, marked uptodate.
func TestStampedRerunIsNoOp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stamps.jsonl")
	g := smokeGraph(t, 200, "stamped")

	cp1 := &countingPlatform{Platform: pregel.New(pregel.Options{})}
	b1 := &Benchmark{
		Platforms:     []platform.Platform{cp1},
		Graphs:        []*graph.Graph{g},
		Validate:      true,
		Stamps:        openStamps(t, path),
		BinaryVersion: "v1",
	}
	rep1, err := b1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cp1.runs.Load() != int64(len(algo.Kinds)) {
		t.Fatalf("first campaign executed %d cells, want %d", cp1.runs.Load(), len(algo.Kinds))
	}

	cp2 := &countingPlatform{Platform: pregel.New(pregel.Options{})}
	b2 := &Benchmark{
		Platforms:     []platform.Platform{cp2},
		Graphs:        []*graph.Graph{g},
		Validate:      true,
		Stamps:        openStamps(t, path),
		BinaryVersion: "v1",
	}
	rep2, err := b2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cp2.loads.Load() != 0 || cp2.runs.Load() != 0 {
		t.Fatalf("unchanged matrix still executed %d loads, %d runs", cp2.loads.Load(), cp2.runs.Load())
	}
	if len(rep2.Results) != len(rep1.Results) {
		t.Fatalf("restored report has %d results, want %d", len(rep2.Results), len(rep1.Results))
	}
	for i, r := range rep2.Results {
		if r.Provenance != report.ProvenanceUptodate {
			t.Errorf("%s: provenance = %q, want uptodate", r.Algorithm, r.Provenance)
		}
		if r.Status != report.StatusSuccess {
			t.Errorf("%s: status = %s", r.Algorithm, r.Status)
		}
		// Restored cells carry the original run's full numbers.
		orig := rep1.Results[i]
		if r.Runtime != orig.Runtime || r.KTEPS != orig.KTEPS || r.GraphEdges != orig.GraphEdges {
			t.Errorf("%s: restored numbers diverge: %v/%v kTEPS=%v/%v", r.Algorithm,
				r.Runtime, orig.Runtime, r.KTEPS, orig.KTEPS)
		}
		if orig.Reps != nil && (r.Reps == nil || r.Reps.Mean != orig.Reps.Mean) {
			t.Errorf("%s: repetition statistics lost on restore", r.Algorithm)
		}
	}
	if s := rep2.Summary(); !strings.Contains(s, "uptodate") {
		t.Errorf("summary does not surface uptodate cells:\n%s", s)
	}
}

// Every fingerprint input must invalidate cells on its own: graph seed,
// weights flag, platform worker budget, workload policy, binary version.
func TestStampInvalidation(t *testing.T) {
	mkGraph := func(t *testing.T, seed uint64, weighted bool) *graph.Graph {
		g, err := datagen.Generate(datagen.Config{Persons: 150, Seed: seed, Weighted: weighted, Name: "inv"})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	type cfg struct {
		seed     uint64
		weighted bool
		workers  int
		validate bool
		binary   string
	}
	base := cfg{seed: 1, workers: 1, validate: true, binary: "v1"}
	run := func(t *testing.T, s *stamp.Store, c cfg) int64 {
		cp := &countingPlatform{Platform: pregel.New(pregel.Options{Workers: c.workers})}
		b := &Benchmark{
			Platforms:     []platform.Platform{cp},
			Graphs:        []*graph.Graph{mkGraph(t, c.seed, c.weighted)},
			Algorithms:    []algo.Kind{algo.BFS},
			Validate:      c.validate,
			Stamps:        s,
			BinaryVersion: c.binary,
		}
		if _, err := b.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return cp.runs.Load()
	}
	variants := map[string]cfg{
		"unchanged": base,
		"seed":      {seed: 2, workers: 1, validate: true, binary: "v1"},
		"weights":   {seed: 1, weighted: true, workers: 1, validate: true, binary: "v1"},
		"workers":   {seed: 1, workers: 2, validate: true, binary: "v1"},
		"workload":  {seed: 1, workers: 1, validate: false, binary: "v1"},
		"binary":    {seed: 1, workers: 1, validate: true, binary: "v2"},
	}
	for name, variant := range variants {
		t.Run(name, func(t *testing.T) {
			s := openStamps(t, filepath.Join(t.TempDir(), "stamps.jsonl"))
			if got := run(t, s, base); got != 1 {
				t.Fatalf("base campaign executed %d cells, want 1", got)
			}
			got := run(t, s, variant)
			if name == "unchanged" {
				if got != 0 {
					t.Errorf("identical re-run executed %d cells, want 0", got)
				}
			} else if got != 1 {
				t.Errorf("changing %s re-executed %d cells, want 1 (stale cell reused)", name, got)
			}
		})
	}
}

// A stored result from a different binary (or any other fingerprint
// input) must not be reused on resume: its fingerprint no longer
// matches, so the cell re-executes.
func TestResumeRejectsFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stamps.jsonl")
	g := smokeGraph(t, 150, "mismatch")
	run := func(binary string) (*countingPlatform, *report.Report) {
		cp := &countingPlatform{Platform: pregel.New(pregel.Options{})}
		b := &Benchmark{
			Platforms:     []platform.Platform{cp},
			Graphs:        []*graph.Graph{g},
			Algorithms:    []algo.Kind{algo.BFS, algo.CONN},
			Stamps:        openStamps(t, path),
			BinaryVersion: binary,
		}
		rep, err := b.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return cp, rep
	}

	if cp, _ := run("v1"); cp.runs.Load() != 2 {
		t.Fatalf("first campaign executed %d cells", cp.runs.Load())
	}
	// Same store, same binary: everything restores.
	if cp, rep := run("v1"); cp.runs.Load() != 0 {
		t.Errorf("same-binary resume executed %d cells, want 0", cp.runs.Load())
	} else {
		for _, r := range rep.Results {
			if r.Provenance != report.ProvenanceUptodate {
				t.Errorf("%s: provenance = %q, want uptodate", r.Algorithm, r.Provenance)
			}
		}
	}
	// Same store, different binary: the stale entries must NOT be
	// reused — every cell re-executes live.
	cp, rep := run("v2")
	if cp.runs.Load() != 2 {
		t.Errorf("new-binary resume executed %d cells, want 2 (stale stamp reused?)", cp.runs.Load())
	}
	for _, r := range rep.Results {
		if r.Provenance != report.ProvenanceLive {
			t.Errorf("%s: provenance = %q, want live", r.Algorithm, r.Provenance)
		}
	}
}

// The store records successes only: a cell that failed terminally is
// not restored on resume but executes again, while its successful
// neighbour restores.
func TestResumeRerunsFailedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stamps.jsonl")
	g := smokeGraph(t, 150, "refail")
	run := func(failFirst int64) (*countingPlatform, *report.Report) {
		cp := &countingPlatform{Platform: pregel.New(pregel.Options{}), failFirst: failFirst}
		b := &Benchmark{
			Platforms:   []platform.Platform{cp},
			Graphs:      []*graph.Graph{g},
			Algorithms:  []algo.Kind{algo.BFS, algo.CONN},
			Parallelism: 1,
			Stamps:      openStamps(t, path),
		}
		rep, err := b.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return cp, rep
	}

	// No retries: the injected failure of the first cell is terminal.
	_, rep := run(1)
	if rep.Results[0].Status != report.StatusError || rep.Results[1].Status != report.StatusSuccess {
		t.Fatalf("first campaign: %s, %s; want error, success", rep.Results[0].Status, rep.Results[1].Status)
	}
	cp, rep := run(0)
	if cp.runs.Load() != 1 {
		t.Errorf("resume executed %d cells, want 1 (the failed one)", cp.runs.Load())
	}
	if r := rep.Results[0]; r.Status != report.StatusSuccess || r.Provenance != report.ProvenanceLive {
		t.Errorf("failed cell on resume: %s, provenance %q; want success, live", r.Status, r.Provenance)
	}
	if r := rep.Results[1]; r.Provenance != report.ProvenanceUptodate {
		t.Errorf("successful cell on resume: provenance %q, want uptodate", r.Provenance)
	}
}

// faultyPlatform injects one terminal failure into every cell; an empty
// fault runs the wrapped platform unchanged. The fault is a circumstance,
// not an input, so it does not enter the config stamp.
type faultyPlatform struct {
	platform.Platform
	fault string
}

func (f *faultyPlatform) StampConfig() string { return platform.StampConfigOf(f.Platform) }

func (f *faultyPlatform) LoadGraph(g *graph.Graph) (platform.Loaded, error) {
	switch f.fault {
	case "load-failed":
		return nil, errors.New("injected load failure")
	case "load-oom":
		return nil, fmt.Errorf("injected: %w", platform.ErrOutOfMemory)
	}
	l, err := f.Platform.LoadGraph(g)
	if err != nil {
		return nil, err
	}
	return &faultyLoaded{Loaded: l, fault: f.fault}, nil
}

type faultyLoaded struct {
	platform.Loaded
	fault string
}

func (l *faultyLoaded) Run(ctx context.Context, kind algo.Kind, params algo.Params) (*platform.Result, error) {
	switch l.fault {
	case "oom":
		return nil, fmt.Errorf("injected: %w", platform.ErrOutOfMemory)
	case "timeout":
		return nil, fmt.Errorf("injected: %w", context.DeadlineExceeded)
	case "error":
		return nil, errors.New("injected kernel failure")
	}
	res, err := l.Loaded.Run(ctx, kind, params)
	if err != nil || l.fault != "invalid" {
		return res, err
	}
	depths := append(algo.BFSOutput(nil), res.Output.(algo.BFSOutput)...)
	depths[0] = 12345
	return &platform.Result{Output: depths, Counters: res.Counters}, nil
}

// Every terminal failure status — kernel OOM, timeout, error, invalid
// output, load failure, load OOM — stays out of the store, so a resumed
// campaign re-executes the cell; once it succeeds it restores.
func TestResumeRerunsEveryTerminalStatus(t *testing.T) {
	cases := []struct {
		fault string
		want  report.Status
	}{
		{"oom", report.StatusOOM},
		{"timeout", report.StatusTimeout},
		{"error", report.StatusError},
		{"invalid", report.StatusInvalid},
		{"load-failed", report.StatusLoadError},
		{"load-oom", report.StatusOOM},
	}
	g := smokeGraph(t, 150, "terminal")
	for _, tc := range cases {
		t.Run(tc.fault, func(t *testing.T) {
			s := openStamps(t, filepath.Join(t.TempDir(), "stamps.jsonl"))
			run := func(fault string) (*countingPlatform, *report.Report) {
				cp := &countingPlatform{Platform: &faultyPlatform{Platform: pregel.New(pregel.Options{}), fault: fault}}
				b := &Benchmark{
					Platforms:  []platform.Platform{cp},
					Graphs:     []*graph.Graph{g},
					Algorithms: []algo.Kind{algo.BFS},
					Validate:   true,
					Stamps:     s,
				}
				rep, err := b.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return cp, rep
			}

			if _, rep := run(tc.fault); rep.Results[0].Status != tc.want {
				t.Fatalf("faulty campaign: status %s (%s), want %s", rep.Results[0].Status, rep.Results[0].Err, tc.want)
			}
			if s.Len() != 0 {
				t.Fatalf("a %s cell was stored (%d stamps)", tc.want, s.Len())
			}
			cp, rep := run("")
			if cp.loads.Load() != 1 || cp.runs.Load() != 1 {
				t.Errorf("resume executed %d loads, %d runs; want 1, 1", cp.loads.Load(), cp.runs.Load())
			}
			if r := rep.Results[0]; r.Status != report.StatusSuccess || r.Provenance != report.ProvenanceLive {
				t.Errorf("resumed cell: %s, provenance %q; want success, live", r.Status, r.Provenance)
			}
			cp, rep = run("")
			if cp.runs.Load() != 0 || rep.Results[0].Provenance != report.ProvenanceUptodate {
				t.Errorf("third campaign executed %d runs, provenance %q; want 0, uptodate",
					cp.runs.Load(), rep.Results[0].Provenance)
			}
		})
	}
}

// The ETL artifact cache: a second campaign over the same (platform,
// graph) restores the graph database's record stores instead of
// rebuilding them, and the report says so.
func TestETLCacheProvenance(t *testing.T) {
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := smokeGraph(t, 200, "etl")
	run := func() *report.Report {
		b := &Benchmark{
			Platforms:  []platform.Platform{graphdb.New(graphdb.Options{})},
			Graphs:     []*graph.Graph{g},
			Algorithms: []algo.Kind{algo.BFS, algo.CONN},
			Artifacts:  cache,
		}
		rep, err := b.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for _, r := range run().Results {
		if r.Status != report.StatusSuccess || r.Provenance != report.ProvenanceLive {
			t.Fatalf("first campaign %s: status=%s provenance=%q", r.Algorithm, r.Status, r.Provenance)
		}
	}
	for _, r := range run().Results {
		if r.Status != report.StatusSuccess {
			t.Errorf("cached campaign %s: %s (%s)", r.Algorithm, r.Status, r.Err)
		}
		if r.Provenance != report.ProvenanceETLCache {
			t.Errorf("%s: provenance = %q, want etl-cache", r.Algorithm, r.Provenance)
		}
	}
}

// A corrupted ETL artifact is detected on read (verify-on-read), the
// campaign falls back to a live ETL, and the cell still succeeds.
func TestETLCacheCorruptionFallsBackToLive(t *testing.T) {
	dir := t.TempDir()
	cache, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.Verify = true
	g := smokeGraph(t, 200, "etl-rot")
	run := func() *report.Report {
		b := &Benchmark{
			Platforms:  []platform.Platform{graphdb.New(graphdb.Options{})},
			Graphs:     []*graph.Graph{g},
			Algorithms: []algo.Kind{algo.BFS},
			Artifacts:  cache,
		}
		rep, err := b.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	run()

	// Tamper with every ETL blob behind the cache's back.
	blobs, err := filepath.Glob(filepath.Join(dir, "etl", "*.bin"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no ETL artifacts written: %v, %v", blobs, err)
	}
	for _, blob := range blobs {
		if err := os.WriteFile(blob, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rep := run()
	r := rep.Results[0]
	if r.Status != report.StatusSuccess {
		t.Fatalf("campaign over corrupted cache: %s (%s)", r.Status, r.Err)
	}
	if r.Provenance != report.ProvenanceLive {
		t.Errorf("provenance = %q, want live (corrupt blob must not count as a cache hit)", r.Provenance)
	}
}

// A stamp entry restores a cell only when it is a successful result of
// that very cell. The entries a hand-edited or hostile store may hold
// under a cell's fingerprint — a null value, no value, a failed result,
// or another cell's result — each re-run the cell and count as misses.
func TestHostileStampEntriesDoNotRestore(t *testing.T) {
	g := smokeGraph(t, 150, "hostile")
	run := func(t *testing.T, path string) (*countingPlatform, *report.Report) {
		cp := &countingPlatform{Platform: pregel.New(pregel.Options{})}
		b := &Benchmark{
			Platforms:     []platform.Platform{cp},
			Graphs:        []*graph.Graph{g},
			Validate:      true,
			Stamps:        openStamps(t, path),
			BinaryVersion: "v1",
		}
		rep, err := b.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return cp, rep
	}
	seeded := filepath.Join(t.TempDir(), "stamps.jsonl")
	run(t, seeded)
	data, err := os.ReadFile(seeded)
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		FP    string          `json:"fp"`
		Value json.RawMessage `json:"value"`
	}
	var entries []entry
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	if len(entries) != len(algo.Kinds) {
		t.Fatalf("seeded store holds %d entries, want %d", len(entries), len(algo.Kinds))
	}

	cases := map[string]func(i int) string{
		"null value": func(i int) string { return fmt.Sprintf(`{"fp":%q,"value":null}`, entries[i].FP) },
		"no value":   func(i int) string { return fmt.Sprintf(`{"fp":%q}`, entries[i].FP) },
		"failed":     func(i int) string { return fmt.Sprintf(`{"fp":%q,"value":{"status":"failed"}}`, entries[i].FP) },
		"other cell": func(i int) string {
			return fmt.Sprintf(`{"fp":%q,"value":%s}`, entries[i].FP, entries[(i+1)%len(entries)].Value)
		},
	}
	for name, line := range cases {
		t.Run(name, func(t *testing.T) {
			var b strings.Builder
			for i := range entries {
				b.WriteString(line(i) + "\n")
			}
			path := filepath.Join(t.TempDir(), "stamps.jsonl")
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			misses := telemetry.Metrics.Counter("stamp_cell_misses_total", "")
			before := misses.Value()
			cp, rep := run(t, path)
			if got := cp.runs.Load(); got != int64(len(entries)) {
				t.Errorf("executed %d cells, want %d", got, len(entries))
			}
			if got := misses.Value() - before; got != int64(len(entries)) {
				t.Errorf("stamp_cell_misses_total rose by %d, want %d", got, len(entries))
			}
			for _, r := range rep.Results {
				if r.Provenance != report.ProvenanceLive || r.Status != report.StatusSuccess ||
					r.Platform != "pregel" || r.Graph != g.Name() || r.Algorithm == "" {
					t.Errorf("row %s/%s/%s: %s, provenance %q", r.Platform, r.Graph, r.Algorithm, r.Status, r.Provenance)
				}
			}
		})
	}
}
