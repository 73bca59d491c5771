package graphdb

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

func TestName(t *testing.T) {
	if New(Options{}).Name() != "graphdb" {
		t.Error("name")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := BuildStore(g, 0)
	if s.NumNodes() != g.NumVertices() {
		t.Fatalf("nodes = %d, want %d", s.NumNodes(), g.NumVertices())
	}
	if int64(s.NumRels()) != g.NumEdges() {
		t.Fatalf("rels = %d, want %d", s.NumRels(), g.NumEdges())
	}
	// Store adjacency must equal CSR adjacency for every vertex.
	var buf []graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		buf = s.OutNeighbors(graph.VertexID(v), buf[:0])
		want := g.OutNeighbors(graph.VertexID(v))
		if !reflect.DeepEqual(append([]graph.VertexID{}, buf...), append([]graph.VertexID{}, want...)) {
			t.Fatalf("vertex %d adjacency: store %v vs CSR %v", v, buf, want)
		}
	}
}

func TestStoreDirectedChains(t *testing.T) {
	b := graph.NewBuilder(graph.Directed(true), graph.WithReverse())
	b.AddEdgeID(0, 1)
	b.AddEdgeID(2, 1)
	b.AddEdgeID(1, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := BuildStore(g, 0)
	var buf []graph.VertexID
	if got := s.OutNeighbors(1, buf); len(got) != 1 || got[0] != 3 {
		t.Errorf("out(1) = %v, want [3]", got)
	}
	if got := s.InNeighborsTest(1); len(got) != 2 {
		t.Errorf("in(1) = %v, want [0 2]", got)
	}
	if got := s.Neighborhood(1, nil); len(got) != 3 {
		t.Errorf("N(1) = %v, want 3 members", got)
	}
}

// InNeighborsTest exposes InNeighbors for the test above.
func (s *Store) InNeighborsTest(v graph.VertexID) []graph.VertexID {
	return s.InNeighbors(v, nil)
}

// TestNeighborGathersKeepPrefix checks the "appended to buf" contract:
// the gathers sort and dedup only what they append.
func TestNeighborGathersKeepPrefix(t *testing.T) {
	b := graph.NewBuilder(graph.Directed(true), graph.WithReverse())
	for _, e := range [][2]graph.VertexID{{0, 1}, {2, 1}, {1, 3}, {3, 1}} {
		b.AddEdgeID(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := BuildStore(g, 0)
	for _, c := range []struct {
		name   string
		gather func(graph.VertexID, []graph.VertexID) []graph.VertexID
		want   []graph.VertexID
	}{
		{"OutNeighbors", s.OutNeighbors, []graph.VertexID{9, 2, 3}},
		{"InNeighbors", s.InNeighbors, []graph.VertexID{9, 2, 0, 2, 3}},
		{"Neighborhood", s.Neighborhood, []graph.VertexID{9, 2, 0, 2, 3}},
	} {
		if got := c.gather(1, []graph.VertexID{9, 2}); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s(1, [9 2]) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPageCacheCounters(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 2000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{PageCachePages: 2}) // tiny cache: misses guaranteed
	loaded, err := p.LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	res, err := loaded.Run(context.Background(), algo.BFS, algo.Params{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.CacheMisses == 0 {
		t.Error("tiny page cache must report misses")
	}
	if res.Counters.EdgesTraversed == 0 {
		t.Error("record touches not counted")
	}
}

func TestCacheLocalityAblation(t *testing.T) {
	// BFS-ordered relabeling improves page-cache hit rate over random
	// order — the §2.1 "poor access locality" choke point, measurable.
	g, err := datagen.Generate(datagen.Config{Persons: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func(g2 *graph.Graph) float64 {
		p := New(Options{PageCachePages: 8})
		loaded, err := p.LoadGraph(g2)
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		res, err := loaded.Run(context.Background(), algo.BFS, algo.Params{Source: 0})
		if err != nil {
			t.Fatal(err)
		}
		total := res.Counters.CacheHits + res.Counters.CacheMisses
		return float64(res.Counters.CacheHits) / float64(total)
	}
	random := run(graph.Remap(g, graph.RandomOrder(g, 9)))
	ordered := run(graph.Remap(g, graph.BFSOrder(g, 0)))
	if ordered <= random {
		t.Errorf("BFS-ordered hit rate %.3f should beat random %.3f", ordered, random)
	}
}

func TestLoadOOM(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 5000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{MemoryBudget: 1024})
	if _, err := p.LoadGraph(g); !errors.Is(err, platform.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestContextCancellation(t *testing.T) {
	g, _ := datagen.Generate(datagen.Config{Persons: 2000, Seed: 5})
	loaded, err := New(Options{}).LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := loaded.Run(ctx, algo.CD, algo.Params{}); err == nil {
		t.Fatal("cancelled context should abort")
	}
}

func TestUnsupportedKind(t *testing.T) {
	g, _ := datagen.Generate(datagen.Config{Persons: 100, Seed: 6})
	loaded, _ := New(Options{}).LoadGraph(g)
	defer loaded.Close()
	if _, err := loaded.Run(context.Background(), algo.Kind("XX"), algo.Params{}); !errors.Is(err, platform.ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}
