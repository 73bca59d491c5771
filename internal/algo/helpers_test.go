package algo

import (
	"math"
	"reflect"
	"testing"

	"graphalytics/internal/graph"
)

func TestLocalCCPerVertex(t *testing.T) {
	// Kite: triangle 0-1-2 plus pendant 2-3.
	g := undirected(t, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	lcc := RunLCC(g)
	want := []float64{1, 1, 1.0 / 3.0, 0}
	for v := range want {
		if math.Abs(lcc[v]-want[v]) > 1e-12 {
			t.Errorf("LCC(%d) = %v, want %v", v, lcc[v], want[v])
		}
	}
}

func TestCountClosedPairs(t *testing.T) {
	out := []graph.VertexID{1, 3, 5, 7}
	nbh := []graph.VertexID{3, 5, 9}
	cp := NewClosedPairs(10)
	cp.Mark(nbh)
	if got := cp.Count(out, 99); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	// The skip vertex is excluded from matches.
	if got := cp.Count(out, 3); got != 1 {
		t.Errorf("count with skip = %d, want 1", got)
	}
	if got := cp.Count(nil, 0); got != 0 {
		t.Errorf("empty out = %d", got)
	}
	// A repeated probe ID (a parallel arc) counts once.
	if got := cp.Count([]graph.VertexID{3, 3, 5, 5, 5}, 99); got != 2 {
		t.Errorf("count with repeats = %d, want 2", got)
	}
	// Marking replaces the previous list.
	cp.Mark(out)
	if got := cp.Count(nbh, 99); got != 2 {
		t.Errorf("count after re-mark = %d, want 2", got)
	}
	cp.Mark(nil)
	if got := cp.Count(out, 99); got != 0 {
		t.Errorf("count after empty mark = %d, want 0", got)
	}
}

func TestComponentAndCommunitySizes(t *testing.T) {
	conn := ConnOutput{0, 0, 2, 2, 2}
	sizes := ComponentSizes(conn)
	if sizes[0] != 2 || sizes[2] != 3 {
		t.Errorf("sizes = %v", sizes)
	}
	if NumComponents(conn) != 2 {
		t.Errorf("components = %d", NumComponents(conn))
	}
	cd := CDOutput{7, 7, 7, 1}
	cs := CommunitySizes(cd)
	if cs[7] != 3 || cs[1] != 1 {
		t.Errorf("community sizes = %v", cs)
	}
}

func TestFirePicksFromListsMatchesGraphPath(t *testing.T) {
	g := randomGraph(t, 50, 200, 3, true)
	p := Params{Seed: 9}.WithDefaults(g.NumVertices())
	for v := graph.VertexID(0); v < 50; v++ {
		direct := FirePicks(g, 60, v, p)
		fromLists := FirePicksFromLists(60, v, g.OutNeighbors(v), g.InNeighbors(v), p)
		if !reflect.DeepEqual(direct, fromLists) {
			t.Fatalf("vertex %d: FirePicks %v != FirePicksFromLists %v", v, direct, fromLists)
		}
	}
}

func TestBurnFireDeterministicAndSorted(t *testing.T) {
	g := randomGraph(t, 100, 500, 5, false)
	p := Params{Seed: 11}.WithDefaults(g.NumVertices())
	a := BurnFire(g, 100, p)
	b := BurnFire(g, 100, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BurnFire not deterministic")
	}
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Fatal("BurnFire output not strictly sorted")
		}
	}
	if len(a) == 0 {
		t.Fatal("a fire always burns its ambassador")
	}
}

func TestFireLevelFiltersBurned(t *testing.T) {
	g := undirected(t, [][2]int64{{0, 1}, {0, 2}, {0, 3}})
	p := Params{Seed: 1, EvoPForward: 0.99}.WithDefaults(g.NumVertices())
	burned := map[graph.VertexID]bool{0: true, 1: true}
	next := FireLevel(g, 4, []graph.VertexID{0}, burned, p)
	for _, w := range next {
		if burned[w] {
			t.Fatalf("FireLevel returned already-burned vertex %d", w)
		}
	}
}
