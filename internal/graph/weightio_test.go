package graph

import (
	"bytes"
	"strings"
	"testing"
)

// Round-trip and rejection tests for the weighted edge-list (.e third
// column) and binary (GALB bit3) formats.

func buildWeighted(t *testing.T, directed bool) *Graph {
	t.Helper()
	b := NewBuilder(Directed(directed), Dedup(), WithReverse(), WithName("wtest"))
	b.AddEdgeWeighted(10, 20, 0.5)
	b.AddEdgeWeighted(20, 30, 2.25)
	b.AddEdgeWeighted(30, 10, 1)
	b.AddEdgeWeighted(10, 30, 0.125)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sameWeightedGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size mismatch: got %v, want %v", got, want)
	}
	if got.Weighted() != want.Weighted() {
		t.Fatalf("Weighted() = %v, want %v", got.Weighted(), want.Weighted())
	}
	type arc struct {
		u, v int64
		w    float64
	}
	collect := func(g *Graph) []arc {
		var out []arc
		g.ArcsW(func(u, v VertexID, w float64) {
			out = append(out, arc{g.Label(u), g.Label(v), w})
		})
		return out
	}
	ga, wa := collect(got), collect(want)
	if len(ga) != len(wa) {
		t.Fatalf("arcs: got %d, want %d", len(ga), len(wa))
	}
	gm := map[arc]bool{}
	for _, a := range ga {
		gm[a] = true
	}
	for _, a := range wa {
		if !gm[a] {
			t.Fatalf("missing arc %+v after round-trip", a)
		}
	}
}

func TestWeightedEdgeListRoundTrip(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := buildWeighted(t, directed)
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "0.5") {
			t.Fatalf("weighted edge list missing weights:\n%s", buf.String())
		}
		back, err := ReadGraph(strings.NewReader(buf.String()), nil, LoadOptions{Directed: directed, Name: "wtest"})
		if err != nil {
			t.Fatal(err)
		}
		if !back.Weighted() {
			t.Fatal("round-tripped graph lost its weights")
		}
		sameWeightedGraph(t, back, g)
	}
}

func TestUnweightedEdgeListStaysUnweighted(t *testing.T) {
	back, err := ReadGraph(strings.NewReader("0 1\n1 2\n"), nil, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Weighted() {
		t.Error("unweighted .e file produced a weighted graph")
	}
	if ws := back.OutWeights(0); ws != nil {
		t.Errorf("OutWeights on unweighted graph = %v, want nil", ws)
	}
	if w := WeightAt(nil, 3); w != 1 {
		t.Errorf("WeightAt(nil) = %v, want unit weight", w)
	}
}

func TestMixedAndMalformedWeightColumns(t *testing.T) {
	cases := []struct {
		name, data, wantErr string
	}{
		{"mixed-weighted-first", "0 1 0.5\n1 2\n", "no weight"},
		{"mixed-unweighted-first", "0 1\n1 2 0.5\n", "weight column"},
		{"malformed-weight", "0 1 banana\n", "bad edge weight"},
		{"negative-weight", "0 1 -2\n", "non-negative"},
		{"nan-weight", "0 1 NaN\n", "non-negative"},
		{"inf-weight", "0 1 +Inf\n", "non-negative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadGraph(strings.NewReader(c.data), nil, LoadOptions{})
			if err == nil {
				t.Fatalf("%q loaded without error", c.data)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
			if !strings.Contains(err.Error(), "line ") {
				t.Errorf("error %q does not carry a line number", err)
			}
		})
	}
}

func TestWeightedBinaryRoundTrip(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := buildWeighted(t, directed)
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Weighted() {
			t.Fatal("binary round-trip lost weights")
		}
		sameWeightedGraph(t, back, g)
		if directed && back.HasReverse() {
			// The rebuilt reverse adjacency carries weights too.
			if back.InWeights(back.InNeighbors(0)[0]) == nil {
				t.Error("reverse adjacency rebuilt without weights")
			}
		}
	}
}

func TestWeightedBinaryTruncatedWeights(t *testing.T) {
	g := buildWeighted(t, true)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-20] // chop into the weights block
	if _, err := ReadBinary(bytes.NewReader(cut)); err == nil {
		t.Error("truncated weight block accepted")
	}
}

func TestWeightedBuilderSemantics(t *testing.T) {
	// Mixing unweighted and weighted adds: earlier unweighted edges get
	// unit weights.
	b := NewBuilder(Directed(true))
	b.AddEdgeID(0, 1)
	b.AddEdgeIDWeighted(1, 2, 3.5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("mixed adds should produce a weighted graph")
	}
	if w := g.OutWeights(0)[0]; w != 1 {
		t.Errorf("backfilled weight = %v, want 1", w)
	}
	if w := g.OutWeights(1)[0]; w != 3.5 {
		t.Errorf("weight = %v, want 3.5", w)
	}

	// Duplicate arcs deduplicate to the smallest weight regardless of
	// insertion order.
	b2 := NewBuilder(Directed(true), Dedup())
	b2.AddEdgeIDWeighted(0, 1, 5)
	b2.AddEdgeIDWeighted(0, 1, 2)
	g2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g2.OutDegree(0) != 1 || g2.OutWeights(0)[0] != 2 {
		t.Errorf("dedup kept weight %v (deg %d), want smallest (2)", g2.OutWeights(0), g2.OutDegree(0))
	}

	// Undirected graphs symmetrize the weight.
	b3 := NewBuilder(Directed(false))
	b3.AddEdgeWeighted(0, 1, 0.75)
	g3, err := b3.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g3.OutWeights(0)[0] != 0.75 || g3.OutWeights(1)[0] != 0.75 {
		t.Errorf("symmetrized weights = %v / %v, want 0.75 both ways",
			g3.OutWeights(0), g3.OutWeights(1))
	}
}

func TestSaveFilesWeightedRoundTrip(t *testing.T) {
	g := buildWeighted(t, false)
	prefix := t.TempDir() + "/w"
	if err := g.SaveFiles(prefix); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEdgeList(prefix+".e", prefix+".v", LoadOptions{Name: "wtest"})
	if err != nil {
		t.Fatal(err)
	}
	sameWeightedGraph(t, back, g)
}

// TestTransformsKeepWeights pins that Remap, AddVertices and WithEdges
// carry a weighted graph's weights, that the edges WithEdges adds weigh
// 1, and that Undirect drops the weights.
func TestTransformsKeepWeights(t *testing.T) {
	arcWeights := func(g *Graph) map[[2]int64]float64 {
		m := map[[2]int64]float64{}
		g.ArcsW(func(u, v VertexID, w float64) { m[[2]int64{g.Label(u), g.Label(v)}] = w })
		return m
	}
	for _, directed := range []bool{true, false} {
		g := buildWeighted(t, directed)
		want := arcWeights(g)
		grown := AddVertices(g, 1)
		added := WithEdges(grown, []VertexID{0}, []VertexID{3})
		for name, h := range map[string]*Graph{
			"Remap":       Remap(g, []VertexID{2, 0, 1}),
			"AddVertices": grown,
			"WithEdges":   added,
		} {
			if !h.Weighted() {
				t.Fatalf("directed=%v: %s dropped the weights", directed, name)
			}
			got := arcWeights(h)
			for arc, w := range want {
				if got[arc] != w {
					t.Fatalf("directed=%v: %s: arc %v weighs %v, want %v", directed, name, arc, got[arc], w)
				}
			}
		}
		newArc := [2]int64{g.Label(0), grown.Label(3)}
		if w, ok := arcWeights(added)[newArc]; !ok || w != 1 {
			t.Fatalf("directed=%v: added arc %v weighs %v (present %v), want 1", directed, newArc, w, ok)
		}
		if directed && Undirect(g).Weighted() {
			t.Fatal("Undirect kept the weights")
		}
	}
}
