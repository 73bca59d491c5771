// Package platformtest provides the cross-platform conformance suite:
// every platform's output for every *registered* workload is checked
// against the sequential reference implementation on a matrix of
// graphs. This is the executable form of the Output Validator's
// contract, driven by the workload registry — registering a new
// workload automatically adds it to every platform's conformance run,
// under the validation policy its spec declares (exact for every
// built-in workload).
package platformtest

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/workload"
)

// Graphs returns the conformance graph matrix: directed and undirected
// random graphs, a disconnected graph, a weighted graph (exercising the
// weighted workloads beyond unit weights), a tiny graph, a
// social-network graph, and the adversarial shapes of adversarial.
func Graphs(tb testing.TB) []*graph.Graph {
	tb.Helper()
	out := []*graph.Graph{
		build(tb, "rand-directed", 300, true, rnd(1, 300, 1500, nil), simple...),
		build(tb, "rand-undirected", 300, false, rnd(2, 300, 1200, nil), simple...),
		build(tb, "rand-sparse-disconnected", 400, true, rnd(3, 400, 220, nil), simple...),
		build(tb, "rand-weighted", 300, true, rnd(5, 300, 1400, func(r *rand.Rand) float64 { return 0.25 + r.Float64() }), simple...),
		build(tb, "tiny", 8, false, rnd(4, 8, 12, nil), simple...),
	}
	sn, err := datagen.Generate(datagen.Config{Persons: 500, Seed: 77, Name: "social"})
	if err != nil {
		tb.Fatal(err)
	}
	return append(append(out, sn), adversarial(tb)...)
}

// adversarial returns the graph shapes implementations commonly get
// wrong ("SoK: The Faults in our Graph Benchmarks"): a lone vertex,
// isolated vertices (the source among them), a hub, many components,
// self-loops, parallel arcs, and zero or tied weights. The empty graph
// is absent by decision: no input path admits it (the Builder, both
// text loaders and the GALB reader reject it with graph.ErrEmptyGraph),
// so no engine or reference defines a workload on zero vertices.
func adversarial(tb testing.TB) []*graph.Graph {
	return []*graph.Graph{
		build(tb, "single-self-loop", 1, false, func(b *graph.Builder) { b.AddEdgeID(0, 0) }),
		build(tb, "isolated-plus-edge", 50, true, func(b *graph.Builder) { b.AddEdgeID(48, 49) }, simple...),
		build(tb, "star-200", 201, false, func(b *graph.Builder) {
			for leaf := 1; leaf <= 200; leaf++ {
				b.AddEdgeID(0, graph.VertexID(leaf))
			}
		}, simple...),
		build(tb, "pairs-100", 200, false, func(b *graph.Builder) {
			for v := 0; v < 200; v += 2 {
				b.AddEdgeID(graph.VertexID(v), graph.VertexID(v+1))
			}
		}, simple...),
		build(tb, "self-loops", 60, true, rnd(6, 60, 300, nil), graph.Dedup()),
		build(tb, "duplicate-arcs", 30, true, rnd(7, 30, 400, nil), graph.DropSelfLoops()),
		build(tb, "zero-weights", 80, true, rnd(8, 80, 320, func(*rand.Rand) float64 { return 0 }), simple...),
		build(tb, "equal-weights", 80, false, rnd(9, 80, 240, func(*rand.Rand) float64 { return 1.5 }), simple...),
	}
}

// simple makes a Builder build a simple graph: no parallel arcs, no
// self-loops.
var simple = []graph.BuilderOption{graph.Dedup(), graph.DropSelfLoops()}

// rnd adds m seeded random arcs over n vertices, weighted by weight
// unless it is nil.
func rnd(seed int64, n, m int, weight func(*rand.Rand) float64) func(*graph.Builder) {
	return func(b *graph.Builder) {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < m; i++ {
			u, v := graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n))
			if weight != nil {
				b.AddEdgeIDWeighted(u, v, weight(r))
			} else {
				b.AddEdgeID(u, v)
			}
		}
	}
}

// build builds an n-vertex graph with reverse adjacency from the arcs
// add feeds its Builder.
func build(tb testing.TB, name string, n int, directed bool, add func(*graph.Builder), opts ...graph.BuilderOption) *graph.Graph {
	tb.Helper()
	b := graph.NewBuilder(append([]graph.BuilderOption{graph.Directed(directed), graph.WithReverse(), graph.WithName(name)}, opts...)...)
	b.SetNumVertices(n)
	add(b)
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// suiteParams returns the algorithm parameters the suite runs every
// workload on g with, defaults applied.
func suiteParams(g *graph.Graph) algo.Params {
	return algo.Params{Source: 0, Seed: 99, EvoNewVertices: 6}.WithDefaults(g.NumVertices())
}

// Conformance runs every registered workload of p on every conformance
// graph and fails the test on any output its spec's check rejects.
func Conformance(t *testing.T, p platform.Platform) {
	t.Helper()
	specs := workload.All()
	for _, g := range Graphs(t) {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			loaded, err := p.LoadGraph(g)
			if err != nil {
				t.Fatalf("LoadGraph: %v", err)
			}
			defer loaded.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			params := suiteParams(g)

			for _, spec := range specs {
				spec := spec
				t.Run(spec.Name(), func(t *testing.T) {
					if err := spec.Supports(g); err != nil {
						t.Skipf("unsupported: %v", err)
					}
					res, err := loaded.Run(ctx, spec.Kind, params)
					if err != nil {
						t.Fatal(err)
					}
					if v := spec.Check(g, params, res.Output, spec.Reference(g, params)); !v.Valid {
						t.Fatalf("%s output rejected (%s policy): %s", spec.Kind, spec.Policy, v.Detail)
					}
				})
			}
		})
	}
}

// WorkersSweep runs every registered workload at worker counts 1, 2, 3
// and 8 and asserts each parallel run matches the workers=1 run: every
// output must pass the spec's check against one reference output per
// (graph, workload), and every output must additionally be
// bit-identical to the single-worker run. factory builds the platform
// at a given worker count (whatever the engine calls it — BSP workers,
// map/reduce slots, dataset partitions).
func WorkersSweep(t *testing.T, factory func(workers int) platform.Platform) {
	t.Helper()
	counts := []int{1, 2, 3, 8}
	gs := Graphs(t)
	sweep := append([]*graph.Graph{gs[0], gs[3]}, adversarial(t)...) // rand-directed + rand-weighted + adversarial
	specs := workload.All()
	for _, g := range sweep {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			params := suiteParams(g)
			refs := map[algo.Kind]any{}
			for _, spec := range specs {
				if spec.Supports(g) == nil {
					refs[spec.Kind] = spec.Reference(g, params)
				}
			}
			outputs := make(map[int]map[algo.Kind]any, len(counts))
			for _, w := range counts {
				loaded, err := factory(w).LoadGraph(g)
				if err != nil {
					t.Fatalf("workers=%d LoadGraph: %v", w, err)
				}
				outputs[w] = map[algo.Kind]any{}
				for _, spec := range specs {
					want, ok := refs[spec.Kind]
					if !ok {
						continue
					}
					res, err := loaded.Run(context.Background(), spec.Kind, params)
					if err != nil {
						t.Fatalf("workers=%d %s: %v", w, spec.Kind, err)
					}
					if v := spec.Check(g, params, res.Output, want); !v.Valid {
						t.Fatalf("workers=%d %s rejected (%s policy): %s", w, spec.Kind, spec.Policy, v.Detail)
					}
					outputs[w][spec.Kind] = res.Output
				}
				loaded.Close()
			}
			for _, spec := range specs {
				base, ok := outputs[counts[0]][spec.Kind]
				if !ok {
					continue
				}
				for _, w := range counts[1:] {
					if !reflect.DeepEqual(outputs[w][spec.Kind], base) {
						t.Errorf("%s: workers=%d output is not bit-identical to workers=1", spec.Kind, w)
					}
				}
			}
		})
	}
}

// CountersPopulated runs one algorithm and asserts the engine reported
// meaningful counters.
func CountersPopulated(t *testing.T, p platform.Platform) {
	t.Helper()
	g := Graphs(t)[0]
	loaded, err := p.LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	res, err := loaded.Run(context.Background(), algo.CONN, algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.Supersteps == 0 {
		t.Error("Supersteps counter not populated")
	}
	if c.Messages == 0 || c.MessageBytes == 0 {
		t.Errorf("message counters not populated: %+v", c)
	}
}
