package workload

import (
	"strings"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := datagen.Generate(datagen.Config{Persons: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuiltinRegistrations(t *testing.T) {
	specs := All()
	if len(specs) != 8 {
		t.Fatalf("registered workloads = %d, want 8", len(specs))
	}
	// The paper's five first (its reporting order), then the LDBC three.
	wantOrder := []algo.Kind{algo.BFS, algo.CD, algo.CONN, algo.EVO, algo.STATS, algo.PR, algo.SSSP, algo.LCC}
	for i, k := range Kinds() {
		if k != wantOrder[i] {
			t.Errorf("Kinds()[%d] = %s, want %s", i, k, wantOrder[i])
		}
	}
	for _, s := range specs {
		if s.Description == "" || s.Policy == "" {
			t.Errorf("%s: incomplete spec %+v", s.Kind, s)
		}
		if _, okL := Lookup(s.Kind); !okL {
			t.Errorf("Lookup(%s) failed", s.Kind)
		}
	}
}

func TestParseNamesAndAliases(t *testing.T) {
	cases := map[string]algo.Kind{
		"BFS":      algo.BFS,
		"bfs":      algo.BFS,
		"wcc":      algo.CONN,
		"CDLP":     algo.CD,
		"pagerank": algo.PR,
		"pr":       algo.PR,
		"sssp":     algo.SSSP,
		"Lcc":      algo.LCC,
		" stats ":  algo.STATS,
	}
	for name, want := range cases {
		s, err := Parse(name)
		if err != nil || s.Kind != want {
			t.Errorf("Parse(%q) = %v, %v; want %s", name, s.Kind, err, want)
		}
	}
	if _, err := Parse("nope"); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Errorf("Parse of unknown name should list known workloads, got %v", err)
	}
}

func TestValidateDispatch(t *testing.T) {
	g := testGraph(t)
	params := algo.Params{Source: 0, Seed: 5}.WithDefaults(g.NumVertices())
	for _, s := range All() {
		out := s.Reference(g, params)
		if r := Validate(g, s.Kind, params, out); !r.Valid {
			t.Errorf("%s: reference output rejected: %s", s.Kind, r.Detail)
		}
		if r := Validate(g, s.Kind, params, "bogus"); r.Valid {
			t.Errorf("%s: wrong output type accepted", s.Kind)
		}
		if r := s.Check(g, params, out, "bogus"); r.Valid {
			t.Errorf("%s: wrong reference type accepted", s.Kind)
		}
	}
	if r := Validate(g, algo.Kind("XX"), params, nil); r.Valid {
		t.Error("unknown kind accepted")
	}
}

func TestSupports(t *testing.T) {
	// A directed graph without reverse adjacency cannot run the
	// neighborhood workloads.
	b := graph.NewBuilder(graph.Directed(true))
	b.AddEdgeID(0, 1)
	b.AddEdgeID(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lcc, _ := Lookup(algo.LCC)
	if err := lcc.Supports(g); err == nil {
		t.Error("LCC on directed graph without reverse adjacency should be unsupported")
	}
	bfs, _ := Lookup(algo.BFS)
	if err := bfs.Supports(g); err != nil {
		t.Errorf("BFS should be supported: %v", err)
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	Register(All()[0])
}
