package dataflow

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/platformtest"
)

func TestConformance(t *testing.T) {
	platformtest.Conformance(t, New(Options{}))
}

func TestConformanceSinglePartition(t *testing.T) {
	platformtest.Conformance(t, New(Options{Parts: 1}))
}

func TestCountersPopulated(t *testing.T) {
	platformtest.CountersPopulated(t, New(Options{}))
}

func TestName(t *testing.T) {
	if New(Options{}).Name() != "dataflow" {
		t.Error("name")
	}
}

func TestLoadOOM(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{MemoryBudget: 1000})
	if _, err := p.LoadGraph(g); !errors.Is(err, platform.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestRunOOMOnTightBudget(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 5000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits the edge dataset but not the iteration state: the
	// GraphX failure mode ("GraphX is unable to process some of the
	// workloads", §3.3).
	budget := 2*g.MemoryFootprint() + 50_000
	p := New(Options{MemoryBudget: budget})
	loaded, err := p.LoadGraph(g)
	if err != nil {
		t.Fatalf("load should succeed: %v", err)
	}
	defer loaded.Close()
	if _, err := loaded.Run(context.Background(), algo.STATS, algo.Params{}); !errors.Is(err, platform.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestDataflowUsesMoreMemoryThanCSR(t *testing.T) {
	// The immutability + mirroring overhead must be visible: peak memory
	// of a CONN run should exceed several times the raw CSR bytes.
	g, err := datagen.Generate(datagen.Config{Persons: 3000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{})
	loaded, err := p.LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	res, err := loaded.Run(context.Background(), algo.CONN, algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.PeakMemoryBytes < 2*g.MemoryFootprint() {
		t.Errorf("peak %d bytes should exceed 2× CSR %d", res.Counters.PeakMemoryBytes, g.MemoryFootprint())
	}
}

func TestContextCancellation(t *testing.T) {
	g, _ := datagen.Generate(datagen.Config{Persons: 2000, Seed: 4})
	p := New(Options{})
	loaded, _ := p.LoadGraph(g)
	defer loaded.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := loaded.Run(ctx, algo.CD, algo.Params{}); err == nil {
		t.Fatal("cancelled context should abort")
	}
}

func TestUnsupportedKind(t *testing.T) {
	g, _ := datagen.Generate(datagen.Config{Persons: 100, Seed: 5})
	loaded, _ := New(Options{}).LoadGraph(g)
	defer loaded.Close()
	if _, err := loaded.Run(context.Background(), algo.Kind("XX"), algo.Params{}); !errors.Is(err, platform.ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}

// canonicalPairs counts, per vertex, the canonical arcs a triplet scan
// of g delivers to it.
func canonicalPairs(t *testing.T, g *graph.Graph) map[graph.VertexID]int64 {
	t.Helper()
	env := NewEnv(g, 3, nil, &platform.Counters{})
	verts := make([]struct{}, g.NumVertices())
	got, err := AggregateMessages(context.Background(), env, verts, 0, 8,
		func(c *Ctx[int64], u, v graph.VertexID, _, _ struct{}) {
			if c.Canonical(u, v) {
				c.SendToSrc(u, 1)
				c.SendToDst(v, 1)
			}
		},
		func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	return asMap(got)
}

func TestCanonicalArc(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 200, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Undirected graph: exactly one canonical arc per pair.
	var count int64
	for _, c := range canonicalPairs(t, g) {
		count += c
	}
	if count != 2*g.NumEdges() {
		t.Errorf("canonical arc endpoints = %d, want %d (one arc per undirected edge)", count, 2*g.NumEdges())
	}

	// Directed multigraph: parallel and reciprocal arcs of a pair still
	// give one canonical arc, so each vertex meets each neighbor once.
	b := graph.NewBuilder(graph.Directed(true), graph.WithReverse())
	for _, e := range [][2]graph.VertexID{{0, 1}, {0, 1}, {1, 0}, {2, 1}, {2, 1}, {2, 2}} {
		b.AddEdgeID(e[0], e[1])
	}
	multi, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := map[graph.VertexID]int64{0: 1, 1: 2, 2: 1}
	if got := canonicalPairs(t, multi); !reflect.DeepEqual(got, want) {
		t.Errorf("neighbor pairs met per vertex = %v, want %v", got, want)
	}
}
