package algo_test

import (
	"math"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform/platformtest"
)

// floatPageRank is the PageRank update in plain float64, scattering in
// ascending source order: the formula RunPageRank computes, without
// the fixed-point sums. It is the oracle that keeps "exact" meaning
// PageRank.
func floatPageRank(g *graph.Graph, p algo.Params) []float64 {
	n := g.NumVertices()
	d := p.PRDamping
	inv := 1.0 / float64(n)
	ranks, next := make([]float64, n), make([]float64, n)
	for v := range ranks {
		ranks[v] = inv
	}
	for iter := 0; iter < p.PRIterations; iter++ {
		var dangling float64
		for v := 0; v < n; v++ {
			if g.OutDegree(graph.VertexID(v)) == 0 {
				dangling += ranks[v]
			}
		}
		base := (1-d)*inv + d*dangling*inv
		for v := range next {
			next[v] = base
		}
		for u := 0; u < n; u++ {
			adj := g.OutNeighbors(graph.VertexID(u))
			if len(adj) == 0 {
				continue
			}
			share := d * ranks[u] / float64(len(adj))
			for _, v := range adj {
				next[v] += share
			}
		}
		ranks, next = next, ranks
	}
	return ranks
}

// pageRankGraphs is the conformance matrix plus a larger Datagen graph.
// Most of them hold dangling vertices (a sink of a directed graph, or
// an isolated vertex), whose mass the update redistributes.
func pageRankGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	sn, err := datagen.Generate(datagen.Config{Persons: 3000, Seed: 7, Name: "social-3000"})
	if err != nil {
		t.Fatal(err)
	}
	return append(platformtest.Graphs(t), sn)
}

func TestPageRankMatchesFloatOracle(t *testing.T) {
	for _, g := range pageRankGraphs(t) {
		p := algo.Params{}.WithDefaults(g.NumVertices())
		got, want := algo.RunPageRank(g, p), floatPageRank(g, p)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-12 {
				t.Errorf("%s: vertex %d: rank %v, float formula %v", g.Name(), v, got[v], want[v])
				break
			}
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	withDangling := 0
	for _, g := range pageRankGraphs(t) {
		for v := 0; v < g.NumVertices(); v++ {
			if g.OutDegree(graph.VertexID(v)) == 0 {
				withDangling++
				break
			}
		}
		var sum float64
		for _, r := range algo.RunPageRank(g, algo.Params{}) {
			sum += r
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: ranks sum to %.15f, want 1", g.Name(), sum)
		}
	}
	if withDangling < 3 {
		t.Fatalf("only %d graphs hold a dangling vertex", withDangling)
	}
}
