package dataflow

import (
	"context"
	"math"
	"slices"
	"testing"

	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/platformtest"
)

// The oracle below is the map-based message path the dense accumulators
// replaced: per-partition map accumulators filled in scan order, then a
// shuffle that buckets every partition's entries by destination shard
// and merges each shard's buckets in ascending partition order.

// oracleStreams scans the triplet view with the same source chunking as
// the engine and returns each partition's messages in scan order.
func oracleStreams[VD, M any](env *Env, verts []VD, send SendFuncW[VD, M]) []*Ctx[M] {
	n := env.G.NumVertices()
	chunk := (n + env.Parts - 1) / env.Parts
	streams := make([]*Ctx[M], env.Parts)
	for p := range streams {
		c := &Ctx[M]{env: env, part: p}
		for u := p * chunk; u < min((p+1)*chunk, n); u++ {
			adj := env.G.OutNeighbors(graph.VertexID(u))
			ws := env.G.OutWeights(graph.VertexID(u))
			for i, v := range adj {
				c.repeat = i > 0 && adj[i-1] == v
				send(c, graph.VertexID(u), v, graph.WeightAt(ws, i), verts[u], verts[v])
			}
		}
		streams[p] = c
	}
	return streams
}

// oracleMerge folds each partition's stream into a map accumulator,
// lifting every message with lift, and shuffles the accumulators into
// one dataset.
func oracleMerge[T, M any](streams []*Ctx[T], lift func(T) M, merge func(M, M) M) map[graph.VertexID]M {
	parts := len(streams)
	put := func(acc map[graph.VertexID]M, v graph.VertexID, m M) {
		if old, ok := acc[v]; ok {
			acc[v] = merge(old, m)
		} else {
			acc[v] = m
		}
	}
	type kv struct {
		v graph.VertexID
		m M
	}
	buckets := make([][][]kv, parts) // [src partition][dst shard]
	for p, c := range streams {
		acc := make(map[graph.VertexID]M)
		for i, d := range c.dsts {
			put(acc, d, lift(c.msgs[i]))
		}
		buckets[p] = make([][]kv, parts)
		for v, m := range acc {
			s := int(uint64(v)*0x9e3779b97f4a7c15>>32) % parts
			buckets[p][s] = append(buckets[p][s], kv{v, m})
		}
	}
	out := make(map[graph.VertexID]M)
	for s := 0; s < parts; s++ {
		shard := make(map[graph.VertexID]M)
		for p := 0; p < parts; p++ {
			for _, e := range buckets[p][s] {
				put(shard, e.v, e.m)
			}
		}
		for v, m := range shard {
			out[v] = m
		}
	}
	return out
}

// asMap returns the receivers of msgs and their messages.
func asMap[M any](msgs Msgs[M]) map[graph.VertexID]M {
	out := make(map[graph.VertexID]M, msgs.Len())
	for _, v := range msgs.keys {
		out[v] = msgs.Get(v)
	}
	return out
}

// checkShape checks that msgs's receivers are ascending, flagged, and
// exactly the oracle's keys.
func checkShape[M, O any](t *testing.T, msgs Msgs[M], want map[graph.VertexID]O) {
	t.Helper()
	if msgs.Len() != len(want) {
		t.Fatalf("Len = %d, oracle has %d receivers", msgs.Len(), len(want))
	}
	if !slices.IsSorted(msgs.keys) {
		t.Fatal("receivers not ascending")
	}
	for v, has := range msgs.has {
		if _, ok := want[graph.VertexID(v)]; ok != has {
			t.Fatalf("vertex %d: received = %v, oracle %v", v, has, ok)
		}
	}
}

func messageGraphs(t *testing.T) []*graph.Graph {
	g, err := datagen.Generate(datagen.Config{Persons: 1500, Seed: 21, Weighted: true, Name: "social-weighted"})
	if err != nil {
		t.Fatal(err)
	}
	return append([]*graph.Graph{g}, platformtest.Graphs(t)...)
}

var messageParts = []int{1, 2, 3, 8}

// floatAttrs returns per-vertex values whose sums round differently
// under different associations.
func floatAttrs(n int) []float64 {
	verts := make([]float64, n)
	for v := range verts {
		verts[v] = 1 / float64(v+3)
	}
	return verts
}

func floatSend(c *Ctx[float64], u, v graph.VertexID, w, du, dv float64) {
	c.SendToDst(v, du*w+1e-3*dv)
	if !c.Canonical(u, v) {
		return
	}
	c.SendToSrc(u, dv/(1+w))
}

func sum(a, b float64) float64 { return a + b }

func TestAggregateMatchesMapOracle(t *testing.T) {
	for _, g := range messageGraphs(t) {
		verts := floatAttrs(g.NumVertices())
		for _, parts := range messageParts {
			env := NewEnv(g, parts, nil, &platform.Counters{})
			got, err := AggregateMessagesW(context.Background(), env, verts, 8, 8, floatSend, sum)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleMerge(oracleStreams(env, verts, floatSend), func(m float64) float64 { return m }, sum)
			checkShape(t, got, want)
			for v, m := range want {
				if math.Float64bits(got.Get(v)) != math.Float64bits(m) {
					t.Fatalf("%s parts=%d vertex %d: sum %v, oracle %v", g.Name(), parts, v, got.Get(v), m)
				}
			}
		}
	}
}

// pairSend sends each endpoint the other's ID, along every arc.
func pairSend(c *Ctx[graph.VertexID], u, v graph.VertexID, _, _ struct{}) {
	c.SendToDst(v, u)
	c.SendToSrc(u, v)
}

func TestCollectMatchesMapOracle(t *testing.T) {
	lift := func(m graph.VertexID) []graph.VertexID { return []graph.VertexID{m} }
	concat := func(a, b []graph.VertexID) []graph.VertexID { return append(a, b...) }
	for _, g := range messageGraphs(t) {
		verts := make([]struct{}, g.NumVertices())
		for _, parts := range messageParts {
			env := NewEnv(g, parts, nil, &platform.Counters{})
			got, err := CollectMessages(context.Background(), env, verts, 0, 8, pairSend)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleMerge(oracleStreams(env, verts,
				func(c *Ctx[graph.VertexID], u, v graph.VertexID, _ float64, du, dv struct{}) {
					pairSend(c, u, v, du, dv)
				}),
				lift, concat)
			checkShape(t, got, want)
			for v, list := range want {
				if !slices.Equal(got.Get(v), list) {
					t.Fatalf("%s parts=%d vertex %d: list %v, oracle %v", g.Name(), parts, v, got.Get(v), list)
				}
			}
			// Lists share one arena: growing one must not reach the next.
			for _, v := range got.keys {
				_ = append(got.Get(v), graph.VertexID(math.MaxUint32))
			}
			for v, list := range want {
				if !slices.Equal(got.Get(v), list) {
					t.Fatalf("%s parts=%d vertex %d: append to a neighbour's list changed it to %v", g.Name(), parts, v, got.Get(v))
				}
			}
		}
	}
}

// TestConsecutiveCallsIndependent runs two scans with different senders
// on one Env: the second result must not see the first call's received
// flags or pair buffers, and must not overwrite the first result.
func TestConsecutiveCallsIndependent(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 800, Seed: 22, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	verts := make([]struct{}, n)
	collect := func(env *Env, keep func(graph.VertexID) bool) map[graph.VertexID][]graph.VertexID {
		t.Helper()
		got, err := CollectMessages(context.Background(), env, verts, 0, 8,
			func(c *Ctx[graph.VertexID], u, v graph.VertexID, du, dv struct{}) {
				if keep(u) {
					pairSend(c, u, v, du, dv)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		return asMap(got)
	}
	count := func(env *Env, keep func(graph.VertexID) bool) map[graph.VertexID]int64 {
		t.Helper()
		got, err := AggregateMessages(context.Background(), env, verts, 0, 8,
			func(c *Ctx[int64], u, v graph.VertexID, _, _ struct{}) {
				if keep(u) {
					c.SendToDst(v, int64(u))
					c.SendToSrc(u, 1)
				}
			},
			func(a, b int64) int64 { return a + b })
		if err != nil {
			t.Fatal(err)
		}
		return asMap(got)
	}
	even := func(u graph.VertexID) bool { return u%2 == 0 }
	low := func(u graph.VertexID) bool { return int(u) < n/10 }
	sameInt := func(x, y int64) bool { return x == y }
	for _, parts := range messageParts {
		fresh := func() *Env { return NewEnv(g, parts, nil, &platform.Counters{}) }
		env := fresh()
		first := collect(env, even)
		firstCopy := make(map[graph.VertexID][]graph.VertexID, len(first))
		for v, l := range first {
			firstCopy[v] = slices.Clone(l)
		}
		if second := collect(env, low); !mapsEqual(second, collect(fresh(), low), slices.Equal) {
			t.Errorf("parts=%d: second collect differs from a fresh Env's", parts)
		}
		if !mapsEqual(first, firstCopy, slices.Equal) {
			t.Errorf("parts=%d: second collect changed the first result", parts)
		}

		first2 := count(env, even)
		if second := count(env, low); !mapsEqual(second, count(fresh(), low), sameInt) {
			t.Errorf("parts=%d: second aggregate differs from a fresh Env's", parts)
		}
		if !mapsEqual(first2, count(fresh(), even), sameInt) {
			t.Errorf("parts=%d: second aggregate changed the first result", parts)
		}
	}
}

func mapsEqual[M any](a, b map[graph.VertexID]M, eq func(M, M) bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v, x := range a {
		y, ok := b[v]
		if !ok || !eq(x, y) {
			return false
		}
	}
	return true
}
