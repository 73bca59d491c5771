package platformtest

import (
	"context"
	"reflect"
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

// engineFactory builds an engine at a worker count.
type engineFactory struct {
	name    string
	factory func(workers int) platform.Platform
}

// parallelEngines are the engines with a worker knob (pregel BSP
// workers, mapreduce slots, dataflow partitions).
var parallelEngines = []engineFactory{
	{"pregel", func(w int) platform.Platform { return pregel.New(pregel.Options{Workers: w}) }},
	{"mapreduce", func(w int) platform.Platform {
		return mapreduce.New(mapreduce.Options{Workers: w, RoundOverhead: -1})
	}},
	{"dataflow", func(w int) platform.Platform { return dataflow.New(dataflow.Options{Parts: w}) }},
}

// TestWorkersSweepAcrossEngines sweeps the worker knob of every
// parallel engine and checks the parallel outputs against the
// single-worker run. graphdb is absent by design: the record store is
// single-threaded.
func TestWorkersSweepAcrossEngines(t *testing.T) {
	for _, c := range parallelEngines {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			WorkersSweep(t, c.factory)
		})
	}
}

// TestStatsIsReferenceBitsOnEveryEngine pins STATS to the mean of LCC:
// on every engine and at every worker count, Run(STATS) must equal
// algo.RunStats bit for bit and the engine's own LCC output folded by
// algo.StatsFromLCC. graphdb has no worker knob, so its factory ignores
// the count.
func TestStatsIsReferenceBitsOnEveryEngine(t *testing.T) {
	cases := append(parallelEngines[:len(parallelEngines):len(parallelEngines)],
		engineFactory{"graphdb", func(int) platform.Platform { return graphdb.New(graphdb.Options{}) }})
	gs := Graphs(t)
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, g := range gs {
				want := algo.RunStats(g)
				params := suiteParams(g)
				for _, w := range []int{1, 2, 3, 8} {
					loaded, err := c.factory(w).LoadGraph(g)
					if err != nil {
						t.Fatalf("%s workers=%d LoadGraph: %v", g.Name(), w, err)
					}
					stats, err := loaded.Run(context.Background(), algo.STATS, params)
					if err != nil {
						t.Fatalf("%s workers=%d STATS: %v", g.Name(), w, err)
					}
					lcc, err := loaded.Run(context.Background(), algo.LCC, params)
					if err != nil {
						t.Fatalf("%s workers=%d LCC: %v", g.Name(), w, err)
					}
					loaded.Close()
					if !reflect.DeepEqual(stats.Output, want) {
						t.Errorf("%s workers=%d: STATS %+v, reference %+v", g.Name(), w, stats.Output, want)
					}
					if folded := algo.StatsFromLCC(g, lcc.Output.(algo.LCCOutput)); !reflect.DeepEqual(stats.Output, folded) {
						t.Errorf("%s workers=%d: STATS %+v, folded LCC %+v", g.Name(), w, stats.Output, folded)
					}
				}
			}
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
