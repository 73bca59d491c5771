package graph_test

import (
	"bytes"
	"testing"

	"graphalytics/internal/gen/rmat"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform/platformtest"
)

func TestWriterMatchesReferenceOnConformanceGraphs(t *testing.T) {
	for _, g := range platformtest.Graphs(t) {
		graph.CheckWriterMatchesReference(t, g, 1, 2, 3, 8)
	}
}

// BenchmarkWriteEdgeList times the .e writer on a weighted R-MAT graph
// of scale 14 (several blocks) and fails if its bytes differ from the
// fmt-based reference writer's. No timing gate.
func BenchmarkWriteEdgeList(b *testing.B) {
	g, err := rmat.Generate(rmat.Config{Scale: 14, Seed: 1, Weighted: true, Name: "rmat-14"})
	if err != nil {
		b.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := graph.ReferenceWriteEdgeList(g, &want); err != nil {
		b.Fatal(err)
	}
	if g.NumArcs() < 4*graph.EdgeBlockArcs {
		b.Fatalf("only %d arcs: the graph no longer spans several writer blocks", g.NumArcs())
	}
	b.SetBytes(int64(want.Len()))
	for b.Loop() {
		got.Reset()
		if err := g.WriteEdgeList(&got); err != nil {
			b.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		b.Fatalf("WriteEdgeList wrote %d bytes that differ from the reference's %d", got.Len(), want.Len())
	}
}
