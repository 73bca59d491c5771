package platformtest

import (
	"bytes"
	"fmt"
	"testing"

	"graphalytics/internal/graph"
)

// TestIngestDeterministicAcrossWorkersOnConformanceGraphs checks that
// the worker count does not change a loaded graph: every
// conformance-suite graph (including the weighted one) is written to
// the text format and loaded back at one and at several worker counts;
// the results must be indistinguishable down to every adjacency list,
// weight, and label. (The loader's independent oracle is the
// line-at-a-time reader in internal/graph's tests.)
func TestIngestDeterministicAcrossWorkersOnConformanceGraphs(t *testing.T) {
	for _, g := range Graphs(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			t.Parallel()
			var ebuf, vbuf bytes.Buffer
			if err := g.WriteEdgeList(&ebuf); err != nil {
				t.Fatal(err)
			}
			if err := g.WriteVertexList(&vbuf); err != nil {
				t.Fatal(err)
			}
			load := func(workers int) *graph.Graph {
				loaded, err := graph.ReadGraph(bytes.NewReader(ebuf.Bytes()), bytes.NewReader(vbuf.Bytes()),
					graph.LoadOptions{Directed: g.Directed(), Name: g.Name(), Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return loaded
			}
			one := load(1)
			for _, workers := range []int{2, 4, 8} {
				assertSameGraph(t, one, load(workers), workers)
			}
		})
	}
}

// assertSameGraph compares two graphs through the public CSR surface:
// vertex count, labels, and per-vertex sorted adjacency with weights in
// both directions — which pins the index/edges/weights arrays exactly.
func assertSameGraph(t *testing.T, want, got *graph.Graph, workers int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("workers=%d: %s", workers, fmt.Sprintf(format, args...))
	}
	if got.NumVertices() != want.NumVertices() {
		fail("vertices %d != %d", got.NumVertices(), want.NumVertices())
	}
	if got.NumArcs() != want.NumArcs() {
		fail("arcs %d != %d", got.NumArcs(), want.NumArcs())
	}
	if got.Weighted() != want.Weighted() {
		fail("weightedness differs")
	}
	if got.HasReverse() != want.HasReverse() {
		fail("reverse adjacency presence differs")
	}
	for v := 0; v < want.NumVertices(); v++ {
		id := graph.VertexID(v)
		if got.Label(id) != want.Label(id) {
			fail("label[%d] %d != %d", v, got.Label(id), want.Label(id))
		}
		wAdj, gAdj := want.OutNeighbors(id), got.OutNeighbors(id)
		if len(wAdj) != len(gAdj) {
			fail("out-degree[%d] %d != %d", v, len(gAdj), len(wAdj))
		}
		wW, gW := want.OutWeights(id), got.OutWeights(id)
		for i := range wAdj {
			if wAdj[i] != gAdj[i] {
				fail("out adjacency of %d differs at %d", v, i)
			}
			if wW != nil && wW[i] != gW[i] {
				fail("out weights of %d differ at %d: %v != %v", v, i, gW[i], wW[i])
			}
		}
		if !want.HasReverse() {
			continue
		}
		wIn, gIn := want.InNeighbors(id), got.InNeighbors(id)
		if len(wIn) != len(gIn) {
			fail("in-degree[%d] %d != %d", v, len(gIn), len(wIn))
		}
		wIW, gIW := want.InWeights(id), got.InWeights(id)
		for i := range wIn {
			if wIn[i] != gIn[i] {
				fail("in adjacency of %d differs at %d", v, i)
			}
			if wIW != nil && wIW[i] != gIW[i] {
				fail("in weights of %d differ at %d", v, i)
			}
		}
	}
}
