package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/dataflow"
	"graphalytics/internal/platform/graphdb"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/report"
)

func inMemoryPlatforms() []platform.Platform {
	return []platform.Platform{
		pregel.New(pregel.Options{}),
		dataflow.New(dataflow.Options{}),
		graphdb.New(graphdb.Options{}),
	}
}

// runCountingReferences runs b and returns its report and how many
// reference outputs it computed.
func runCountingReferences(t *testing.T, b *Benchmark) (*report.Report, int64) {
	t.Helper()
	before := referencesTotal.Value()
	rep, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep, referencesTotal.Value() - before
}

// A campaign computes each reference output once per (graph, workload),
// however many platforms validate against it and however the cells are
// scheduled.
func TestReferenceComputedOncePerGraphWorkload(t *testing.T) {
	graphs := []*graph.Graph{smokeGraph(t, 150, "ref-a"), smokeGraph(t, 200, "ref-b")}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			rep, n := runCountingReferences(t, &Benchmark{
				Platforms:   inMemoryPlatforms(),
				Graphs:      graphs,
				Validate:    true,
				Parallelism: par,
				Params:      algo.Params{Seed: 3},
			})
			if want := int64(len(graphs) * len(algo.Kinds)); n != want {
				t.Errorf("computed %d references, want %d", n, want)
			}
			if len(rep.Results) != 3*len(graphs)*len(algo.Kinds) {
				t.Fatalf("results = %d", len(rep.Results))
			}
			for _, r := range rep.Results {
				if r.Status != report.StatusSuccess || !r.Validation.Valid {
					t.Errorf("%s/%s/%s: status %s: %s", r.Platform, r.Graph, r.Algorithm, r.Status, r.Validation.Detail)
				}
			}
		})
	}
}

// No reference is computed when nothing is validated: with validation
// off, and when every cell restores from the stamped result store.
func TestReferenceSkippedWhenNothingValidates(t *testing.T) {
	g := smokeGraph(t, 150, "ref-skip")
	if _, n := runCountingReferences(t, &Benchmark{
		Platforms: inMemoryPlatforms(), Graphs: []*graph.Graph{g},
	}); n != 0 {
		t.Errorf("validation off: computed %d references, want 0", n)
	}

	path := filepath.Join(t.TempDir(), "stamps.jsonl")
	stamped := func() *Benchmark {
		return &Benchmark{
			Platforms: inMemoryPlatforms(), Graphs: []*graph.Graph{g},
			Validate: true, Stamps: openStamps(t, path), BinaryVersion: "v1",
		}
	}
	if _, n := runCountingReferences(t, stamped()); n != int64(len(algo.Kinds)) {
		t.Fatalf("cold campaign computed %d references, want %d", n, len(algo.Kinds))
	}
	rep, n := runCountingReferences(t, stamped())
	if n != 0 {
		t.Errorf("every cell UPTODATE: computed %d references, want 0", n)
	}
	for _, r := range rep.Results {
		if r.Provenance != report.ProvenanceUptodate {
			t.Errorf("%s/%s: provenance %q, want uptodate", r.Platform, r.Algorithm, r.Provenance)
		}
	}
}

// liarPlatform wraps a platform under another name and corrupts its own
// output for one (graph, workload) pair.
type liarPlatform struct {
	platform.Platform
	graph string
	alg   algo.Kind
}

func (p *liarPlatform) Name() string { return "liar" }

func (p *liarPlatform) LoadGraph(g *graph.Graph) (platform.Loaded, error) {
	l, err := p.Platform.LoadGraph(g)
	if err != nil {
		return nil, err
	}
	return &liarLoaded{Loaded: l, p: p}, nil
}

type liarLoaded struct {
	platform.Loaded
	p *liarPlatform
}

func (l *liarLoaded) Run(ctx context.Context, kind algo.Kind, params algo.Params) (*platform.Result, error) {
	res, err := l.Loaded.Run(ctx, kind, params)
	if err == nil && kind == l.p.alg && l.Graph().Name() == l.p.graph {
		out := res.Output.(algo.BFSOutput)
		out[len(out)-1]++
	}
	return res, err
}

// A wrong output fails only its own cell. The liar runs first, so its
// cell computes the shared reference and checks against it before the
// honest platforms do; their cells staying valid shows the check did
// not mutate the reference.
func TestWrongOutputInvalidOnlyOnItsPlatform(t *testing.T) {
	graphs := []*graph.Graph{smokeGraph(t, 150, "honest"), smokeGraph(t, 200, "lied-about")}
	liar := &liarPlatform{Platform: pregel.New(pregel.Options{}), graph: "lied-about", alg: algo.BFS}
	rep, n := runCountingReferences(t, &Benchmark{
		Platforms:   []platform.Platform{liar, pregel.New(pregel.Options{}), dataflow.New(dataflow.Options{})},
		Graphs:      graphs,
		Algorithms:  []algo.Kind{algo.BFS, algo.CONN},
		Validate:    true,
		Parallelism: 1,
	})
	if n != 4 {
		t.Errorf("computed %d references, want 4", n)
	}
	for _, r := range rep.Results {
		lied := r.Platform == "liar" && r.Graph == "lied-about" && r.Algorithm == algo.BFS
		switch {
		case lied && (r.Status != report.StatusInvalid || r.Validation.Valid):
			t.Errorf("corrupted output: status %s, valid %t; want invalid", r.Status, r.Validation.Valid)
		case !lied && (r.Status != report.StatusSuccess || !r.Validation.Valid):
			t.Errorf("%s/%s/%s: status %s: %s", r.Platform, r.Graph, r.Algorithm, r.Status, r.Validation.Detail)
		}
	}
}

// Every way a cell can finish — success, kernel error, load failure —
// releases its share of the reference, so once Run returns the
// campaign holds no reference output.
func TestCampaignDropsReferences(t *testing.T) {
	failing := &fakeCancelPlatform{name: "failing", run: func(context.Context) error { return errors.New("injected") }}
	b := &Benchmark{
		Platforms: []platform.Platform{
			pregel.New(pregel.Options{}),
			failing,
			graphdb.New(graphdb.Options{MemoryBudget: 512}),
		},
		Graphs:   []*graph.Graph{smokeGraph(t, 150, "drop-a"), smokeGraph(t, 200, "drop-b")},
		Validate: true,
	}
	c, err := b.newCampaign()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	statuses := map[string]report.Status{}
	for _, r := range rep.Results {
		statuses[r.Platform] = r.Status
	}
	if statuses["pregel"] != report.StatusSuccess || statuses["failing"] != report.StatusError ||
		statuses["graphdb"] != report.StatusOOM {
		t.Fatalf("cell outcomes %v: the test needs a success, an error and a load failure", statuses)
	}
	if want := 2 * len(algo.Kinds); len(c.refs) != want {
		t.Fatalf("campaign planned %d references, want %d", len(c.refs), want)
	}
	for k, ref := range c.refs {
		if ref.out != nil || ref.pending.Load() != 0 {
			t.Errorf("%v: after Run the reference is held (output %T, %d pending cells)", k, ref.out, ref.pending.Load())
		}
	}
}
