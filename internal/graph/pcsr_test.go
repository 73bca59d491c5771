package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The oracle of the CSR builder: buildCSR must produce byte-identical
// index/edges/weights arrays to buildCSRW, an independent sequential
// counting sort, for every worker count, on every input shape.

// buildCSRW builds a CSR (index, edges, weights) triple from parallel
// src/dst/weight arrays using counting sort by source, then sorts each
// adjacency list (by target, then weight) and optionally deduplicates.
// A nil ws builds an unweighted CSR (nil weights returned). Duplicate
// arcs keep the smallest weight.
func buildCSRW(n int, srcs, dsts []VertexID, ws []float64, dedup bool) ([]int64, []VertexID, []float64) {
	index := make([]int64, n+1)
	for _, s := range srcs {
		index[s+1]++
	}
	for i := 0; i < n; i++ {
		index[i+1] += index[i]
	}
	edges := make([]VertexID, len(srcs))
	var weights []float64
	if ws != nil {
		weights = make([]float64, len(srcs))
	}
	cursor := make([]int64, n)
	for i, s := range srcs {
		at := index[s] + cursor[s]
		edges[at] = dsts[i]
		if weights != nil {
			weights[at] = ws[i]
		}
		cursor[s]++
	}
	for v := 0; v < n; v++ {
		lo, hi := index[v], index[v+1]
		adj := edges[lo:hi]
		if weights == nil {
			sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
			continue
		}
		sort.Sort(&edgeWeightSort{adj: adj, ws: weights[lo:hi]})
	}
	if !dedup {
		return index, edges, weights
	}
	// In-place dedup per vertex, then compact. Weighted duplicates keep
	// the first (smallest) weight thanks to the (target, weight) sort.
	w := int64(0)
	newIndex := make([]int64, n+1)
	for v := 0; v < n; v++ {
		start := w
		var last VertexID
		first := true
		for i := index[v]; i < index[v+1]; i++ {
			u := edges[i]
			if first || u != last {
				edges[w] = u
				if weights != nil {
					weights[w] = weights[i]
				}
				w++
				last = u
				first = false
			}
		}
		newIndex[v] = start
	}
	newIndex[n] = w
	if weights != nil {
		weights = weights[:w:w]
	}
	return newIndex, edges[:w:w], weights
}

func randomArcs(t *testing.T, n, m int, seed int64, weighted bool) ([]VertexID, []VertexID, []float64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	srcs := make([]VertexID, m)
	dsts := make([]VertexID, m)
	var ws []float64
	if weighted {
		ws = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		srcs[i] = VertexID(r.Intn(n))
		dsts[i] = VertexID(r.Intn(n))
		if weighted {
			// Coarse weights so duplicate (target, weight) pairs occur.
			ws[i] = float64(r.Intn(8)) / 4
		}
	}
	return srcs, dsts, ws
}

func csrIdentical(t *testing.T, label string, wantIdx []int64, wantE []VertexID, wantW []float64,
	gotIdx []int64, gotE []VertexID, gotW []float64) {
	t.Helper()
	if !slices.Equal(wantIdx, gotIdx) {
		t.Fatalf("%s: index arrays differ", label)
	}
	if !slices.Equal(wantE, gotE) {
		t.Fatalf("%s: edge arrays differ", label)
	}
	if !slices.Equal(wantW, gotW) {
		t.Fatalf("%s: weight arrays differ", label)
	}
}

func TestParallelCSRMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		n, m     int
		weighted bool
		dedup    bool
	}{
		{"unweighted", 700, 50000, false, false},
		{"unweighted-dedup", 700, 50000, false, true},
		{"weighted", 500, 50000, true, false},
		{"weighted-dedup", 300, 50000, true, true},
		{"dense-dup-heavy", 40, 40000, true, true},
		{"sparse", 20000, 40000, false, true},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 3, 7, 16} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				srcs, dsts, ws := randomArcs(t, c.n, c.m, int64(c.n+c.m+workers), c.weighted)
				wi, we, ww := buildCSRW(c.n, slices.Clone(srcs), slices.Clone(dsts), slices.Clone(ws), c.dedup)
				gi, ge, gw := buildCSR(c.n, srcs, dsts, ws, c.dedup, workers)
				csrIdentical(t, c.name, wi, we, ww, gi, ge, gw)
			})
		}
	}
}

// TestParallelCSRSmallShapes runs the builder at several worker counts
// on inputs far below arcsPerWorker to exercise its edge shapes: hub
// vertices, empty adjacencies, all-duplicate arcs.
func TestParallelCSRSmallShapes(t *testing.T) {
	type arcs struct {
		srcs, dsts []VertexID
		ws         []float64
	}
	hub := arcs{}
	for i := 0; i < 200; i++ {
		hub.srcs = append(hub.srcs, 3)
		hub.dsts = append(hub.dsts, VertexID(i%5))
		hub.ws = append(hub.ws, float64(i%3))
	}
	cases := []struct {
		name  string
		n     int
		a     arcs
		dedup bool
	}{
		{"hub-vertex", 10, hub, true},
		{"no-arcs", 5, arcs{}, true},
		{"single-arc", 4, arcs{srcs: []VertexID{2}, dsts: []VertexID{0}, ws: []float64{1.5}}, false},
		{"all-duplicates", 3, arcs{
			srcs: []VertexID{1, 1, 1, 1},
			dsts: []VertexID{2, 2, 2, 2},
			ws:   []float64{4, 2, 3, 2},
		}, true},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				wi, we, ww := buildCSRW(c.n, slices.Clone(c.a.srcs), slices.Clone(c.a.dsts), slices.Clone(c.a.ws), c.dedup)
				gi, ge, gw := buildCSR(c.n, slices.Clone(c.a.srcs), slices.Clone(c.a.dsts), slices.Clone(c.a.ws), c.dedup, workers)
				csrIdentical(t, c.name, wi, we, ww, gi, ge, gw)
			})
		}
	}
}

func TestBalancedVertexRanges(t *testing.T) {
	// A skewed index: vertex 0 owns nearly all arcs.
	index := []int64{0, 900, 910, 920, 930, 1000}
	ranges := balancedVertexRanges(index, 5, 3)
	// Ranges must cover [0, n) exactly, in order, without overlap.
	next := 0
	for _, r := range ranges {
		if r[0] != next || r[1] <= r[0] {
			t.Fatalf("bad range %v (expected start %d)", r, next)
		}
		next = r[1]
	}
	if next != 5 {
		t.Fatalf("ranges end at %d, want 5", next)
	}
}

func TestFromArcsWorkersMatchSequential(t *testing.T) {
	for _, directed := range []bool{true, false} {
		srcs, dsts, ws := randomArcs(t, 400, 60000, 99, true)
		seq := FromArcs("seq", 400, slices.Clone(srcs), slices.Clone(dsts), slices.Clone(ws), directed, 1)
		par := FromArcs("seq", 400, srcs, dsts, ws, directed, 8)
		if diff := graphDiff(seq, par); diff != "" {
			t.Fatalf("directed=%v: %s", directed, diff)
		}
	}
}

// graphDiff reports the first CSR-level difference between two graphs
// ("" when byte-identical).
func graphDiff(a, b *Graph) string {
	switch {
	case a.n != b.n:
		return fmt.Sprintf("vertex count %d != %d", a.n, b.n)
	case a.directed != b.directed:
		return "directedness differs"
	case !slices.Equal(a.labels, b.labels):
		return "label tables differ"
	case !slices.Equal(a.outIndex, b.outIndex):
		return "out index differs"
	case !slices.Equal(a.outEdges, b.outEdges):
		return "out edges differ"
	case !slices.Equal(a.outWeights, b.outWeights):
		return "out weights differ"
	case (a.inIndex == nil) != (b.inIndex == nil):
		return "reverse adjacency presence differs"
	case !slices.Equal(a.inIndex, b.inIndex):
		return "in index differs"
	case !slices.Equal(a.inEdges, b.inEdges):
		return "in edges differ"
	case !slices.Equal(a.inWeights, b.inWeights):
		return "in weights differ"
	}
	return ""
}
