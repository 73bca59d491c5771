package algo

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
)

func undirected(t testing.TB, edges [][2]int64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(graph.Directed(false), graph.DropSelfLoops())
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func directed(t testing.TB, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(graph.Directed(true), graph.WithReverse(), graph.Dedup())
	b.SetNumVertices(n)
	for _, e := range edges {
		b.AddEdgeID(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomGraph(tb testing.TB, n, m int, seed int64, dir bool) *graph.Graph {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(graph.Directed(dir), graph.Dedup(), graph.DropSelfLoops(), graph.WithReverse())
	b.SetNumVertices(n)
	for i := 0; i < m; i++ {
		b.AddEdgeID(graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.WithDefaults(500)
	if p.CDIterations != 10 || p.CDDelta != 0.05 || p.CDPreference != 0.1 {
		t.Errorf("CD defaults wrong: %+v", p)
	}
	if p.EvoNewVertices != 5 {
		t.Errorf("EvoNewVertices = %d, want 5 (n/100)", p.EvoNewVertices)
	}
	if p.EvoPForward != 0.35 || p.EvoRBackward != 0.32 {
		t.Errorf("EVO defaults wrong: %+v", p)
	}
}

// ------------------------- STATS -------------------------

func TestStatsTriangle(t *testing.T) {
	g := undirected(t, [][2]int64{{0, 1}, {1, 2}, {2, 0}})
	s := RunStats(g)
	if s.Vertices != 3 || s.Edges != 3 {
		t.Fatalf("size = %d/%d", s.Vertices, s.Edges)
	}
	if math.Abs(s.MeanLCC-1) > 1e-12 {
		t.Errorf("MeanLCC = %v, want 1", s.MeanLCC)
	}
}

func TestStatsKite(t *testing.T) {
	g := undirected(t, [][2]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	s := RunStats(g)
	want := (1 + 1 + 1.0/3.0 + 0) / 4
	if math.Abs(s.MeanLCC-want) > 1e-12 {
		t.Errorf("MeanLCC = %v, want %v", s.MeanLCC, want)
	}
}

func TestStatsDirectedNeighborhood(t *testing.T) {
	// Directed: 0->1, 1->2, 2->0 plus 0->2.
	// N(0)={1,2}, arcs inside: 1->2 and 2->... 2->0 not inside pair set;
	// ordered pairs in N(0)²: (1,2) has arc 1->2 ✓; (2,1) no arc. LCC(0)=1/2.
	// N(1)={0,2}: pairs (0,2): arc ✓, (2,0): arc ✓ => LCC(1)=1.
	// N(2)={0,1}: (0,1) arc ✓, (1,0) no => LCC(2)=1/2.
	g := directed(t, 3, [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 2}})
	s := RunStats(g)
	want := (0.5 + 1 + 0.5) / 3
	if math.Abs(s.MeanLCC-want) > 1e-12 {
		t.Errorf("MeanLCC = %v, want %v", s.MeanLCC, want)
	}
}

func TestStatsEmptyNeighborhoods(t *testing.T) {
	g := directed(t, 4, [][2]int{{0, 1}})
	s := RunStats(g)
	if s.MeanLCC != 0 {
		t.Errorf("MeanLCC = %v, want 0", s.MeanLCC)
	}
	if s.Vertices != 4 || s.Edges != 1 {
		t.Errorf("size = %d/%d", s.Vertices, s.Edges)
	}
}

// TestStatsFromLCCSumsInVertexOrder pins the summation order that makes
// every engine's STATS the reference's bits: each 1e-16 is below half
// an ulp of 1, so added after vertex 0 it is lost and the mean is
// exactly 1/5, while any other order keeps some of it.
func TestStatsFromLCCSumsInVertexOrder(t *testing.T) {
	g := directed(t, 5, [][2]int{{0, 1}})
	s := StatsFromLCC(g, LCCOutput{1, 1e-16, 1e-16, 1e-16, 1e-16})
	if want := (StatsOutput{Vertices: 5, Edges: 1, MeanLCC: 1.0 / 5}); s != want {
		t.Errorf("StatsFromLCC = %+v, want %+v", s, want)
	}
}

// ------------------------- BFS -------------------------

func TestBFSPath(t *testing.T) {
	g := directed(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	d := RunBFS(g, 0)
	want := BFSOutput{0, 1, 2, 3, -1}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("depths = %v, want %v", d, want)
	}
}

func TestBFSDirectionality(t *testing.T) {
	g := directed(t, 3, [][2]int{{1, 0}, {1, 2}})
	d := RunBFS(g, 0)
	if d[1] != -1 || d[2] != -1 {
		t.Errorf("BFS must follow out-edges only: %v", d)
	}
}

func TestBFSUndirected(t *testing.T) {
	g := undirected(t, [][2]int64{{0, 1}, {1, 2}})
	d := RunBFS(g, 2)
	want := BFSOutput{2, 1, 0}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("depths = %v, want %v", d, want)
	}
}

// Property: BFS depths satisfy the triangle property — along any arc
// (u,v) with u reached, depth[v] <= depth[u]+1 and v is reached.
func TestQuickBFSDepthInvariant(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 60, 200, seed, true)
		d := RunBFS(g, 0)
		ok := true
		g.Arcs(func(u, v graph.VertexID) {
			if d[u] >= 0 {
				if d[v] < 0 || d[v] > d[u]+1 {
					ok = false
				}
			}
		})
		return ok && d[0] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// ------------------------- CONN -------------------------

func TestConnTwoComponents(t *testing.T) {
	g := directed(t, 6, [][2]int{{0, 1}, {1, 2}, {4, 3}})
	c := RunConn(g)
	want := ConnOutput{0, 0, 0, 3, 3, 5}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("labels = %v, want %v", c, want)
	}
	if NumComponents(c) != 3 {
		t.Errorf("components = %d, want 3", NumComponents(c))
	}
}

func TestConnWeaklyConnected(t *testing.T) {
	// Directed arcs both ways around: weakly connected regardless.
	g := directed(t, 4, [][2]int{{1, 0}, {1, 2}, {3, 2}})
	c := RunConn(g)
	for v, l := range c {
		if l != 0 {
			t.Fatalf("vertex %d label %d, want 0 (weak connectivity)", v, l)
		}
	}
}

// Property: labels are the minimum ID of the component, and two vertices
// joined by an arc always share a label.
func TestQuickConnInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 50, 120, seed, true)
		c := RunConn(g)
		ok := true
		g.Arcs(func(u, v graph.VertexID) {
			if c[u] != c[v] {
				ok = false
			}
		})
		for v, l := range c {
			if l > graph.VertexID(v) {
				ok = false // label must be the min member, never larger
			}
			if c[l] != l {
				ok = false // label vertex carries its own label
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// ------------------------- CD -------------------------

func TestTallyVotesBasics(t *testing.T) {
	if _, _, ok := TallyVotes(nil, NewCDWeights(0.1, nil)); ok {
		t.Error("empty votes should report !ok")
	}
	votes := []Vote{
		{Label: 5, Score: 1, Degree: 2},
		{Label: 3, Score: 0.5, Degree: 2},
		{Label: 3, Score: 0.6, Degree: 2},
	}
	// Weights (m=0): label 5 -> 1.0, label 3 -> 1.1. Winner 3, max score 0.6.
	l, s, ok := TallyVotes(votes, NewCDWeights(0, nil))
	if !ok || l != 3 || math.Abs(s-0.6) > 1e-12 {
		t.Fatalf("TallyVotes = %d/%v/%v", l, s, ok)
	}
}

func TestTallyVotesTieBreak(t *testing.T) {
	votes := []Vote{
		{Label: 9, Score: 1, Degree: 1},
		{Label: 2, Score: 1, Degree: 1},
	}
	l, _, _ := TallyVotes(votes, NewCDWeights(0, nil))
	if l != 2 {
		t.Fatalf("tie must break to smallest label, got %d", l)
	}
}

func TestTallyVotesOrderInvariant(t *testing.T) {
	votes := []Vote{
		{Label: 1, Score: 0.31, Degree: 5},
		{Label: 2, Score: 0.77, Degree: 3},
		{Label: 1, Score: 0.55, Degree: 8},
		{Label: 2, Score: 0.12, Degree: 2},
	}
	rev := make([]Vote, len(votes))
	for i, v := range votes {
		rev[len(votes)-1-i] = v
	}
	l1, s1, _ := TallyVotes(votes, NewCDWeights(0.1, nil))
	l2, s2, _ := TallyVotes(rev, NewCDWeights(0.1, nil))
	if l1 != l2 || s1 != s2 {
		t.Fatal("TallyVotes must be input-order invariant")
	}
}

// TestSortVotesHeapFallback runs the heapsort that quickVotes falls
// back to past its depth limit, which no ordinary input reaches, and
// checks it sorts like the standard library under voteLess.
func TestSortVotesHeapFallback(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 17, 100, 1000} {
		got := make([]Vote, n)
		for i := range got {
			got[i] = Vote{Label: int64(r.Intn(5)), Score: float64(r.Intn(3)) / 2, Degree: int32(r.Intn(4))}
		}
		want := slices.Clone(got)
		slices.SortFunc(want, func(a, b Vote) int {
			if voteLess(&a, &b) {
				return -1
			}
			if voteLess(&b, &a) {
				return 1
			}
			return 0
		})
		quickVotes(got, 0)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: heapsort order differs from slices.SortFunc", n)
		}
	}
}

func TestCDTwoCliques(t *testing.T) {
	// Two 4-cliques joined by a single bridge edge: CD must separate
	// them. Built with dense IDs so vertex v is literally ID v.
	b := graph.NewBuilder(graph.Directed(false), graph.DropSelfLoops())
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdgeID(graph.VertexID(i), graph.VertexID(j))
			b.AddEdgeID(graph.VertexID(i+4), graph.VertexID(j+4))
		}
	}
	b.AddEdgeID(3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out := RunCD(g, Params{})
	if out[0] != out[1] || out[1] != out[2] {
		t.Errorf("clique A not one community: %v", out)
	}
	if out[4] != out[5] || out[5] != out[6] {
		t.Errorf("clique B not one community: %v", out)
	}
	if out[0] == out[7] {
		t.Errorf("cliques merged: %v", out)
	}
	if q := Modularity(g, out); q < 0.3 {
		t.Errorf("modularity = %v, want decent community structure", q)
	}
}

func TestCDIsolatedVertexKeepsOwnLabel(t *testing.T) {
	g := directed(t, 3, [][2]int{{0, 1}})
	out := RunCD(g, Params{})
	if out[2] != 2 {
		t.Errorf("isolated vertex label = %d, want 2", out[2])
	}
}

func TestCDDeterministic(t *testing.T) {
	g := randomGraph(t, 200, 800, 5, false)
	a := RunCD(g, Params{})
	b := RunCD(g, Params{})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("CD not deterministic")
	}
}

func TestModularityRange(t *testing.T) {
	g := randomGraph(t, 100, 300, 7, false)
	out := RunCD(g, Params{})
	q := Modularity(g, out)
	if q < -1 || q > 1 {
		t.Errorf("modularity out of range: %v", q)
	}
	// Single community has modularity 0.
	all := make(CDOutput, g.NumVertices())
	if q := Modularity(g, all); math.Abs(q) > 1e-9 {
		t.Errorf("single-community modularity = %v, want 0", q)
	}
}

// ------------------------- EVO -------------------------

func TestEvoAddsVerticesAndEdges(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := RunEvo(g, Params{EvoNewVertices: 10, Seed: 42})
	if out.NewVertices != 10 {
		t.Fatalf("NewVertices = %d", out.NewVertices)
	}
	if len(out.Edges) < 10 {
		t.Fatalf("each new vertex must link at least its ambassador; got %d edges", len(out.Edges))
	}
	seen := map[graph.VertexID]bool{}
	for _, e := range out.Edges {
		if int(e[0]) < 500 {
			t.Fatalf("edge source %d is not a new vertex", e[0])
		}
		if e[1] >= e[0] {
			t.Fatalf("edge target %d not an earlier vertex than %d", e[1], e[0])
		}
		seen[e[0]] = true
	}
	if len(seen) != 10 {
		t.Errorf("only %d new vertices created edges", len(seen))
	}
}

func TestEvoDeterministic(t *testing.T) {
	g, _ := datagen.Generate(datagen.Config{Persons: 400, Seed: 4})
	a := RunEvo(g, Params{EvoNewVertices: 8, Seed: 1})
	b := RunEvo(g, Params{EvoNewVertices: 8, Seed: 1})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("EVO not deterministic")
	}
	c := RunEvo(g, Params{EvoNewVertices: 8, Seed: 2})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should burn differently")
	}
}

func TestEvoEdgesSorted(t *testing.T) {
	g, _ := datagen.Generate(datagen.Config{Persons: 300, Seed: 5})
	out := RunEvo(g, Params{EvoNewVertices: 6, Seed: 9})
	for i := 1; i < len(out.Edges); i++ {
		a, b := out.Edges[i-1], out.Edges[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatalf("edges not strictly sorted at %d: %v %v", i, a, b)
		}
	}
}

func TestApplyEvo(t *testing.T) {
	g, _ := datagen.Generate(datagen.Config{Persons: 300, Seed: 6})
	out := RunEvo(g, Params{EvoNewVertices: 5, Seed: 11})
	grown := ApplyEvo(g, out)
	if grown.NumVertices() != 305 {
		t.Fatalf("vertices = %d, want 305", grown.NumVertices())
	}
	if grown.NumEdges() != g.NumEdges()+int64(len(out.Edges)) {
		t.Fatalf("edges = %d, want %d", grown.NumEdges(), g.NumEdges()+int64(len(out.Edges)))
	}
	for _, e := range out.Edges {
		if !grown.HasArc(e[0], e[1]) {
			t.Fatalf("missing new arc %v", e)
		}
	}
}

func TestEvoBurnCap(t *testing.T) {
	// A dense graph with pf ~ 1 would burn everything; the cap must hold.
	g := randomGraph(t, 200, 4000, 8, false)
	out := RunEvo(g, Params{EvoNewVertices: 1, EvoPForward: 0.95, EvoMaxBurn: 50, Seed: 3})
	if len(out.Edges) > 50 {
		t.Errorf("burn cap exceeded: %d edges from one fire", len(out.Edges))
	}
}

// Property: EVO on any graph produces edges only from new vertices to
// strictly older vertices, with no duplicates.
func TestQuickEvoInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 80, 240, seed, false)
		out := RunEvo(g, Params{EvoNewVertices: 5, Seed: uint64(seed) + 7})
		seen := map[[2]graph.VertexID]bool{}
		for _, e := range out.Edges {
			if int(e[0]) < 80 || e[1] >= e[0] || seen[e] {
				return false
			}
			seen[e] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
