package platformtest

import (
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/dataflow"
	"graphalytics/internal/platform/graphdb"
	"graphalytics/internal/platform/mapreduce"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/workload"
)

// TestRegistryConformanceMatrix is the full conformance matrix in one
// place: every registered workload × every platform, validated against
// the reference under each workload's declared policy. The per-platform
// packages run Conformance again under their own engine variants
// (worker counts, combiners off); this test pins the default
// configurations and fails loudly when a newly registered workload is
// missing a platform implementation.
func TestRegistryConformanceMatrix(t *testing.T) {
	platforms := []platform.Platform{
		pregel.New(pregel.Options{}),
		mapreduce.New(mapreduce.Options{RoundOverhead: -1}),
		dataflow.New(dataflow.Options{}),
		graphdb.New(graphdb.Options{}),
	}
	for _, p := range platforms {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			Conformance(t, p)
		})
	}
}

// TestWorkersSweepAcrossEngines sweeps the worker knob of every
// parallel engine (pregel BSP workers, mapreduce slots, dataflow
// partitions) and checks the parallel outputs against the
// single-worker run under each workload's validation policy. graphdb
// is absent by design: the record store is single-threaded.
func TestWorkersSweepAcrossEngines(t *testing.T) {
	cases := []struct {
		name    string
		factory func(workers int) platform.Platform
	}{
		{"pregel", func(w int) platform.Platform { return pregel.New(pregel.Options{Workers: w}) }},
		{"mapreduce", func(w int) platform.Platform {
			return mapreduce.New(mapreduce.Options{Workers: w, RoundOverhead: -1})
		}},
		{"dataflow", func(w int) platform.Platform { return dataflow.New(dataflow.Options{Parts: w}) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			WorkersSweep(t, c.factory)
		})
	}
}

// TestWeightedGraphReachesPlatforms asserts the conformance matrix
// actually exercises a weighted graph — the guard that keeps the SSSP
// runs from silently degrading to unit weights everywhere.
func TestWeightedGraphReachesPlatforms(t *testing.T) {
	weighted := false
	for _, g := range Graphs(t) {
		if g.Weighted() {
			weighted = true
		}
	}
	if !weighted {
		t.Fatal("conformance graph matrix contains no weighted graph")
	}
	if len(workload.All()) < 8 {
		t.Fatalf("workload registry has %d entries, want at least the 8 built-ins", len(workload.All()))
	}
}

// TestAdversarialShapes asserts each adversarial graph still has the
// property it is named for, so a builder option cannot quietly turn one
// into an ordinary graph.
func TestAdversarialShapes(t *testing.T) {
	selfLoop := func(g *graph.Graph) bool {
		for v := 0; v < g.NumVertices(); v++ {
			if g.HasArc(graph.VertexID(v), graph.VertexID(v)) {
				return true
			}
		}
		return false
	}
	repeatedArc := func(g *graph.Graph) bool {
		for v := 0; v < g.NumVertices(); v++ {
			adj := g.OutNeighbors(graph.VertexID(v))
			for i := 1; i < len(adj); i++ {
				if adj[i] == adj[i-1] {
					return true
				}
			}
		}
		return false
	}
	weightsAll := func(w float64) func(*graph.Graph) bool {
		return func(g *graph.Graph) bool {
			if !g.Weighted() || g.NumArcs() == 0 {
				return false
			}
			all := true
			g.ArcsW(func(_, _ graph.VertexID, x float64) { all = all && x == w })
			return all
		}
	}
	components := func(want int) func(*graph.Graph) bool {
		return func(g *graph.Graph) bool { return len(algo.ComponentSizes(algo.RunConn(g))) == want }
	}
	checks := map[string]func(*graph.Graph) bool{
		"single-self-loop":   func(g *graph.Graph) bool { return g.NumVertices() == 1 && selfLoop(g) },
		"isolated-plus-edge": func(g *graph.Graph) bool { return g.NumEdges() == 1 && g.OutDegree(0) == 0 },
		"star-200":           func(g *graph.Graph) bool { return g.OutDegree(0) == 200 },
		"pairs-100":          components(100),
		"self-loops":         selfLoop,
		"duplicate-arcs":     repeatedArc,
		"zero-weights":       weightsAll(0),
		"equal-weights":      weightsAll(1.5),
	}
	for _, g := range adversarial(t) {
		check, ok := checks[g.Name()]
		if !ok {
			t.Errorf("%s: no shape check", g.Name())
			continue
		}
		if !check(g) {
			t.Errorf("%s does not have its shape: %v", g.Name(), g)
		}
	}
}
