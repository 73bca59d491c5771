package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderDirected(t *testing.T) {
	b := NewBuilder(Directed(true), WithReverse())
	b.AddEdgeID(0, 1)
	b.AddEdgeID(0, 2)
	b.AddEdgeID(2, 1)
	b.AddEdgeID(1, 0)
	g := mustBuild(t, b)

	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if got := g.OutNeighbors(0); !reflect.DeepEqual(got, []VertexID{1, 2}) {
		t.Errorf("OutNeighbors(0) = %v, want [1 2]", got)
	}
	if got := g.InNeighbors(1); !reflect.DeepEqual(got, []VertexID{0, 2}) {
		t.Errorf("InNeighbors(1) = %v, want [0 2]", got)
	}
	if g.OutDegree(1) != 1 || g.InDegree(0) != 1 {
		t.Errorf("degree mismatch: out(1)=%d in(0)=%d", g.OutDegree(1), g.InDegree(0))
	}
}

func TestBuilderUndirectedSymmetrizes(t *testing.T) {
	b := NewBuilder(Directed(false))
	b.AddEdgeID(0, 1)
	b.AddEdgeID(1, 2)
	g := mustBuild(t, b)

	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.NumArcs() != 4 {
		t.Fatalf("NumArcs = %d, want 4", g.NumArcs())
	}
	if got := g.OutNeighbors(1); !reflect.DeepEqual(got, []VertexID{0, 2}) {
		t.Errorf("OutNeighbors(1) = %v, want [0 2]", got)
	}
	// Undirected graphs expose reverse adjacency aliasing forward.
	if !g.HasReverse() {
		t.Error("undirected graph should report HasReverse")
	}
	if got := g.InNeighbors(1); !reflect.DeepEqual(got, []VertexID{0, 2}) {
		t.Errorf("InNeighbors(1) = %v, want [0 2]", got)
	}
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(Directed(true), Dedup(), DropSelfLoops())
	b.AddEdgeID(0, 1)
	b.AddEdgeID(0, 1)
	b.AddEdgeID(1, 1)
	b.AddEdgeID(1, 2)
	g := mustBuild(t, b)
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (dedup + loop drop)", g.NumEdges())
	}
	if g.HasArc(1, 1) {
		t.Error("self-loop should have been dropped")
	}
}

func TestBuilderExternalLabels(t *testing.T) {
	b := NewBuilder(Directed(false))
	b.AddEdge(100, 200)
	b.AddEdge(200, 700)
	g := mustBuild(t, b)
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3", g.NumVertices())
	}
	seen := map[int64]bool{}
	for v := 0; v < g.NumVertices(); v++ {
		seen[g.Label(VertexID(v))] = true
	}
	for _, want := range []int64{100, 200, 700} {
		if !seen[want] {
			t.Errorf("label %d missing", want)
		}
	}
}

func TestBuilderIsolatedVertices(t *testing.T) {
	b := NewBuilder(Directed(true), WithReverse())
	b.AddVertex(5)
	b.AddVertex(9)
	b.AddEdge(5, 7)
	g := mustBuild(t, b)
	if g.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d, want 3 (9 is isolated)", g.NumVertices())
	}
}

func TestBuilderEmpty(t *testing.T) {
	if _, err := NewBuilder().Build(); err != ErrEmptyGraph {
		t.Fatalf("Build on empty = %v, want ErrEmptyGraph", err)
	}
}

func TestSetNumVertices(t *testing.T) {
	b := NewBuilder(Directed(true), WithReverse())
	b.SetNumVertices(10)
	b.AddEdgeID(0, 1)
	g := mustBuild(t, b)
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
}

func TestHasArc(t *testing.T) {
	b := NewBuilder(Directed(true))
	for i := VertexID(1); i < 20; i += 2 {
		b.AddEdgeID(0, i)
	}
	g := mustBuild(t, b)
	for i := VertexID(0); i < 20; i++ {
		want := i%2 == 1
		if got := g.HasArc(0, i); got != want {
			t.Errorf("HasArc(0,%d) = %v, want %v", i, got, want)
		}
	}
}

func TestNeighborhoodUnion(t *testing.T) {
	b := NewBuilder(Directed(true), WithReverse())
	b.AddEdgeID(0, 1)
	b.AddEdgeID(0, 2)
	b.AddEdgeID(3, 0)
	b.AddEdgeID(2, 0) // 2 is both in- and out-neighbor
	b.AddEdgeID(0, 0) // self loop excluded from neighborhood
	g := mustBuild(t, b)
	got := g.Neighborhood(0, nil)
	want := []VertexID{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighborhood(0) = %v, want %v", got, want)
	}
}

func TestEdgesIterUndirectedOncePerEdge(t *testing.T) {
	b := NewBuilder(Directed(false))
	b.AddEdgeID(0, 1)
	b.AddEdgeID(1, 2)
	b.AddEdgeID(0, 2)
	g := mustBuild(t, b)
	count := 0
	g.Edges(func(u, v VertexID) {
		if u > v {
			t.Errorf("Edges emitted u>v: %d %d", u, v)
		}
		count++
	})
	if count != 3 {
		t.Fatalf("Edges visited %d, want 3", count)
	}
}

func TestReadGraphAndRoundTrip(t *testing.T) {
	edges := "# comment\n1 2\n2 3\n3 1\n\n% another comment\n4 1\n"
	verts := "1\n2\n3\n4\n5\n"
	g, err := ReadGraph(strings.NewReader(edges), strings.NewReader(verts), LoadOptions{Directed: true, Name: "t"})
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}

	var eb, vb bytes.Buffer
	if err := g.WriteEdgeList(&eb); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	if err := g.WriteVertexList(&vb); err != nil {
		t.Fatalf("WriteVertexList: %v", err)
	}
	g2, err := ReadGraph(bytes.NewReader(eb.Bytes()), bytes.NewReader(vb.Bytes()), LoadOptions{Directed: true})
	if err != nil {
		t.Fatalf("ReadGraph round-trip: %v", err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %v vs %v", g2, g)
	}
	// Edge sets over labels must match.
	set := func(g *Graph) map[[2]int64]bool {
		m := map[[2]int64]bool{}
		g.Arcs(func(u, v VertexID) { m[[2]int64{g.Label(u), g.Label(v)}] = true })
		return m
	}
	if !reflect.DeepEqual(set(g), set(g2)) {
		t.Fatal("edge sets differ after round trip")
	}
}

func TestReadGraphBadInput(t *testing.T) {
	if _, err := ReadGraph(strings.NewReader("1 x\n"), nil, LoadOptions{}); err == nil {
		t.Error("expected error for malformed edge line")
	}
	if _, err := ReadGraph(strings.NewReader("1\n"), nil, LoadOptions{}); err == nil {
		t.Error("expected error for single-field edge line")
	}
	if _, err := ReadGraph(strings.NewReader(""), nil, LoadOptions{}); err == nil {
		t.Error("expected ErrEmptyGraph for empty input")
	}
}

func TestCutInt(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		rest string
		ok   bool
	}{
		{"42 7", 42, " 7", true},
		{"  -3,9", -3, ",9", true},
		{"+8", 8, "", true},
		{"x", 0, "x", false},
		{"", 0, "", false},
	}
	for _, c := range cases {
		v, restB, ok := cutInt([]byte(c.in))
		rest := string(restB)
		if v != c.want || rest != c.rest || ok != c.ok {
			t.Errorf("cutInt(%q) = (%d,%q,%v), want (%d,%q,%v)", c.in, v, rest, ok, c.want, c.rest, c.ok)
		}
	}
}

func TestUndirect(t *testing.T) {
	b := NewBuilder(Directed(true), WithReverse())
	b.AddEdgeID(0, 1)
	b.AddEdgeID(1, 0) // reciprocal pair collapses to one undirected edge
	b.AddEdgeID(1, 2)
	b.AddEdgeID(2, 2) // self loop dropped
	g := mustBuild(t, b)
	u := Undirect(g)
	if u.Directed() {
		t.Fatal("Undirect returned a directed graph")
	}
	if u.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", u.NumEdges())
	}
	if Undirect(u) != u {
		t.Error("Undirect of undirected graph should be identity")
	}
}

func TestRemapPreservesStructure(t *testing.T) {
	b := NewBuilder(Directed(true), WithReverse())
	b.AddEdgeID(0, 1)
	b.AddEdgeID(1, 2)
	b.AddEdgeID(2, 0)
	b.AddEdgeID(0, 3)
	g := mustBuild(t, b)
	perm := []VertexID{3, 2, 1, 0} // reverse order
	r := Remap(g, perm)
	if r.NumVertices() != g.NumVertices() || r.NumEdges() != g.NumEdges() {
		t.Fatal("Remap changed graph size")
	}
	// old arc (0,1) must appear as (newOf0,newOf1) = (3,2)
	if !r.HasArc(3, 2) {
		t.Error("Remap lost arc (0,1)->(3,2)")
	}
	if !r.HasArc(1, 3) { // old (2,0) -> new (1,3)
		t.Error("Remap lost arc (2,0)->(1,3)")
	}
}

func TestOrderingsArePermutations(t *testing.T) {
	g := randomTestGraph(50, 200, 1, true)
	check := func(name string, perm []VertexID) {
		t.Helper()
		if len(perm) != g.NumVertices() {
			t.Fatalf("%s: len = %d", name, len(perm))
		}
		seen := make([]bool, g.NumVertices())
		for _, v := range perm {
			if seen[v] {
				t.Fatalf("%s: duplicate vertex %d", name, v)
			}
			seen[v] = true
		}
	}
	check("DegreeOrder", DegreeOrder(g))
	check("BFSOrder", BFSOrder(g, 0))
	check("RandomOrder", RandomOrder(g, 42))
}

func TestDegreeOrderSorted(t *testing.T) {
	g := randomTestGraph(60, 300, 7, true)
	perm := DegreeOrder(g)
	for i := 1; i < len(perm); i++ {
		if g.OutDegree(perm[i-1]) < g.OutDegree(perm[i]) {
			t.Fatalf("DegreeOrder not descending at %d", i)
		}
	}
}

func TestAddVerticesAndWithEdges(t *testing.T) {
	b := NewBuilder(Directed(false))
	b.AddEdgeID(0, 1)
	g := mustBuild(t, b)
	g2 := AddVertices(g, 2)
	if g2.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g2.NumVertices())
	}
	if g2.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g2.NumEdges())
	}
	g3 := WithEdges(g2, []VertexID{2, 3}, []VertexID{0, 2})
	if g3.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g3.NumEdges())
	}
	if !g3.HasArc(0, 2) || !g3.HasArc(2, 0) {
		t.Error("WithEdges on undirected graph must add both arcs")
	}
}

func TestPartitioners(t *testing.T) {
	g := randomTestGraph(200, 1000, 3, true)
	parts := 8
	for _, p := range []Partitioner{
		NewHashPartitioner(parts),
		NewRangePartitioner(parts, g.NumVertices()),
		NewGreedyPartitioner(g, parts),
	} {
		if p.Parts() != parts {
			t.Errorf("%s: Parts = %d", p.Name(), p.Parts())
		}
		sizes := make([]int, parts)
		for v := 0; v < g.NumVertices(); v++ {
			a := p.Assign(VertexID(v))
			if a < 0 || a >= parts {
				t.Fatalf("%s: Assign out of range: %d", p.Name(), a)
			}
			sizes[a]++
		}
		cf := CutFraction(g, p)
		if cf < 0 || cf > 1 {
			t.Errorf("%s: CutFraction = %v", p.Name(), cf)
		}
	}
}

func TestGreedyBeatsHashOnClusteredGraph(t *testing.T) {
	// Ring of dense cliques: greedy should cut far fewer edges than hash.
	b := NewBuilder(Directed(false))
	cliques, size := 8, 16
	for c := 0; c < cliques; c++ {
		base := VertexID(c * size)
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.AddEdgeID(base+VertexID(i), base+VertexID(j))
			}
		}
		next := VertexID(((c + 1) % cliques) * size)
		b.AddEdgeID(base, next)
	}
	g := mustBuild(t, b)
	hash := CutFraction(g, NewHashPartitioner(4))
	greedy := CutFraction(g, NewGreedyPartitioner(g, 4))
	if greedy >= hash {
		t.Errorf("greedy cut %.3f should beat hash cut %.3f on clustered graph", greedy, hash)
	}
}

// randomTestGraph builds a deterministic random graph for tests.
func randomTestGraph(n, m int, seed int64, directed bool) *Graph {
	r := rand.New(rand.NewSource(seed))
	b := NewBuilder(Directed(directed), Dedup(), DropSelfLoops(), WithReverse())
	b.SetNumVertices(n)
	for i := 0; i < m; i++ {
		b.AddEdgeID(VertexID(r.Intn(n)), VertexID(r.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Property: adjacency lists are always sorted and within range.
func TestQuickAdjacencySorted(t *testing.T) {
	f := func(edges []uint16, directedFlag bool) bool {
		if len(edges) < 2 {
			return true
		}
		b := NewBuilder(Directed(directedFlag), Dedup(), WithReverse())
		n := 64
		b.SetNumVertices(n)
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdgeID(VertexID(int(edges[i])%n), VertexID(int(edges[i+1])%n))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		for v := 0; v < g.NumVertices(); v++ {
			adj := g.OutNeighbors(VertexID(v))
			if !sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
				return false
			}
			for _, u := range adj {
				if int(u) >= g.NumVertices() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: undirected graphs are symmetric (u in adj(v) <=> v in adj(u)).
func TestQuickUndirectedSymmetry(t *testing.T) {
	f := func(edges []uint16) bool {
		if len(edges) < 2 {
			return true
		}
		b := NewBuilder(Directed(false))
		n := 48
		b.SetNumVertices(n)
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdgeID(VertexID(int(edges[i])%n), VertexID(int(edges[i+1])%n))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		sym := true
		g.Arcs(func(u, v VertexID) {
			if !g.HasArc(v, u) {
				sym = false
			}
		})
		return sym
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Remap by any permutation preserves degree multiset.
func TestQuickRemapDegrees(t *testing.T) {
	f := func(seed int64) bool {
		g := randomTestGraph(40, 160, seed, true)
		perm := RandomOrder(g, uint64(seed)+1)
		r := Remap(g, perm)
		d1 := make([]int, 0, g.NumVertices())
		d2 := make([]int, 0, g.NumVertices())
		for v := 0; v < g.NumVertices(); v++ {
			d1 = append(d1, g.OutDegree(VertexID(v)))
			d2 = append(d2, r.OutDegree(VertexID(v)))
		}
		sort.Ints(d1)
		sort.Ints(d2)
		return reflect.DeepEqual(d1, d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryFootprintPositive(t *testing.T) {
	g := randomTestGraph(100, 400, 9, true)
	if g.MemoryFootprint() <= 0 {
		t.Error("MemoryFootprint should be positive")
	}
	if !strings.Contains(g.String(), "vertices") {
		t.Errorf("String() = %q", g.String())
	}
}
