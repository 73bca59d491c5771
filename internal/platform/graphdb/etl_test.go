package graphdb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

func etlRoundTrip(t *testing.T, weighted bool) {
	t.Helper()
	g, err := datagen.Generate(datagen.Config{Persons: 300, Seed: 7, Weighted: weighted})
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{PageCachePages: 8})
	live, err := p.LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	var blob bytes.Buffer
	if err := p.WriteETL(live, &blob); err != nil {
		t.Fatal(err)
	}
	restored, err := p.ReadETL(g, &blob)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	ls, rs := live.(*loaded).store, restored.(*loaded).store
	if rs.directed != ls.directed {
		t.Errorf("directed = %v, want %v", rs.directed, ls.directed)
	}
	if !reflect.DeepEqual(rs.nodes, ls.nodes) {
		t.Error("node stores differ after ETL round trip")
	}
	if !reflect.DeepEqual(rs.rels, ls.rels) {
		t.Error("relationship stores differ after ETL round trip")
	}
	if !reflect.DeepEqual(rs.weights, ls.weights) {
		t.Error("property stores differ after ETL round trip")
	}
}

func TestETLRoundTripUnweighted(t *testing.T) { etlRoundTrip(t, false) }
func TestETLRoundTripWeighted(t *testing.T)   { etlRoundTrip(t, true) }

// A cached load still has to fit: ReadETL applies the same memory
// budget as live ETL.
func TestETLReadEnforcesBudget(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{})
	live, err := p.LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	var blob bytes.Buffer
	if err := p.WriteETL(live, &blob); err != nil {
		t.Fatal(err)
	}
	tiny := New(Options{MemoryBudget: 1024})
	if _, err := tiny.ReadETL(g, &blob); !errors.Is(err, platform.ErrOutOfMemory) {
		t.Fatalf("ReadETL under a 1KB budget = %v, want ErrOutOfMemory", err)
	}
}

func TestETLRejectsGarbage(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{})
	for name, blob := range map[string][]byte{
		"empty":     nil,
		"bad-magic": []byte("NOPE\x01\x00aaaaaaaaaaaaaaaa"),
		"truncated": append([]byte(etlMagic), etlVersion, 0),
	} {
		if _, err := p.ReadETL(g, bytes.NewReader(blob)); !errors.Is(err, errETL) {
			t.Errorf("%s: err = %v, want errETL", name, err)
		}
	}
}

// etlBlob loads g live and returns its ETL blob.
func etlBlob(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	p := New(Options{})
	live, err := p.LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	var blob bytes.Buffer
	if err := p.WriteETL(live, &blob); err != nil {
		t.Fatal(err)
	}
	return blob.Bytes()
}

// An undirected graph with self-loops has a relationship count that is
// not NumEdges(); the count ReadETL expects is BuildStore's.
func TestETLRoundTripSelfLoops(t *testing.T) {
	b := graph.NewBuilder(graph.Directed(false))
	for _, e := range [][2]graph.VertexID{{0, 0}, {0, 1}, {1, 2}, {2, 2}, {3, 3}} {
		b.AddEdgeID(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := BuildStore(g, 0).NumRels(); int64(got) == g.NumEdges() {
		t.Fatalf("test graph has %d relationships = NumEdges; want a graph where they differ", got)
	}
	l, err := New(Options{}).ReadETL(g, bytes.NewReader(etlBlob(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
}

// Each corruption of a valid blob is caught while reading it.
func TestETLRejectsCorruptRecords(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 100, Seed: 3, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	node := func(v int) int { return 22 + 4*v }
	rel := func(i int) int { return 22 + 4*n + 16*i }
	put32 := func(b []byte, off int, v int32) { binary.LittleEndian.PutUint32(b[off:], uint32(v)) }
	numRels := int32(binary.LittleEndian.Uint64(etlBlob(t, g)[14:22]))
	for name, corrupt := range map[string]func(b []byte){
		"numRels":           func(b []byte) { binary.LittleEndian.PutUint64(b[14:], uint64(numRels)+1) },
		"numRels huge":      func(b []byte) { binary.LittleEndian.PutUint64(b[14:], 1<<60) },
		"directed flag":     func(b []byte) { b[5] ^= etlFlagDirected },
		"weighted flag":     func(b []byte) { b[5] ^= etlFlagWeighted },
		"chain head < -1":   func(b []byte) { put32(b, node(n-1), -2) },
		"chain head >= rel": func(b []byte) { put32(b, node(0), numRels) },
		"src >= n":          func(b []byte) { put32(b, rel(5), int32(n)) },
		"dst >= n":          func(b []byte) { put32(b, rel(5)+4, int32(n)) },
		"srcNext < -1":      func(b []byte) { put32(b, rel(5)+8, -2) },
		"dstNext >= rels":   func(b []byte) { put32(b, rel(5)+12, numRels) },
		"srcNext cycle":     func(b []byte) { put32(b, rel(5)+8, 5) },
		"dstNext forward":   func(b []byte) { put32(b, rel(5)+12, 6) },
	} {
		blob := etlBlob(t, g)
		corrupt(blob)
		if _, err := New(Options{}).ReadETL(g, bytes.NewReader(blob)); !errors.Is(err, errETL) {
			t.Errorf("%s: err = %v, want errETL", name, err)
		}
	}
}

// The budget is applied to the header's shape, before the stores are
// allocated: an over-budget blob costs next to nothing to reject.
func TestETLBudgetBeforeAllocation(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	blob := etlBlob(t, g)
	size := BuildStore(g, 0).Bytes()
	tiny := New(Options{MemoryBudget: 1024})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = tiny.ReadETL(g, bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, platform.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(size)/8 {
		t.Errorf("rejecting a %d-byte store allocated %d bytes", size, alloc)
	}
}

func TestETLRejectsMismatchedGraph(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{})
	live, err := p.LoadGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	var blob bytes.Buffer
	if err := p.WriteETL(live, &blob); err != nil {
		t.Fatal(err)
	}
	other, err := datagen.Generate(datagen.Config{Persons: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadETL(other, &blob); !errors.Is(err, errETL) {
		t.Fatalf("blob for a different graph accepted: %v", err)
	}
}

// fuzzETLGraphs are the graphs FuzzReadETL reads blobs against: directed,
// undirected, weighted, and undirected with self-loops.
func fuzzETLGraphs(tb testing.TB) []*graph.Graph {
	tb.Helper()
	edges := [][2]int64{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {4, 1}}
	build := func(directed bool, add func(b *graph.Builder, i int, src, dst int64)) *graph.Graph {
		b := graph.NewBuilder(graph.Directed(directed))
		for i, e := range edges {
			add(b, i, e[0], e[1])
		}
		g, err := b.Build()
		if err != nil {
			tb.Fatal(err)
		}
		return g
	}
	plain := func(b *graph.Builder, _ int, src, dst int64) { b.AddEdge(src, dst) }
	return []*graph.Graph{
		build(true, plain),
		build(false, plain),
		build(true, func(b *graph.Builder, i int, src, dst int64) { b.AddEdgeWeighted(src, dst, float64(i)+0.5) }),
		build(false, func(b *graph.Builder, _ int, src, dst int64) { b.AddEdge(src, src); b.AddEdge(src, dst) }),
	}
}

// FuzzReadETL fuzzes the GDBE reader against fixed graphs: any bytes
// end in an error or in a store on which BFS and CONN finish.
func FuzzReadETL(f *testing.F) {
	gs := fuzzETLGraphs(f)
	for i, g := range gs {
		f.Add(uint8(i), etlBlob(f, g))
	}
	f.Fuzz(func(t *testing.T, which uint8, blob []byte) {
		g := gs[int(which)%len(gs)]
		l, err := New(Options{PageCachePages: 2}).ReadETL(g, bytes.NewReader(blob))
		if err != nil {
			if !errors.Is(err, errETL) && !errors.Is(err, platform.ErrOutOfMemory) {
				t.Fatalf("ReadETL error %v is neither errETL nor ErrOutOfMemory", err)
			}
			return
		}
		defer l.Close()
		// A chain walk that never ends would not reach a context check,
		// so the kernels run under a watchdog rather than a deadline.
		done := make(chan error, 1)
		go func() {
			for _, kind := range []algo.Kind{algo.BFS, algo.CONN} {
				if _, err := l.Run(context.Background(), kind, algo.Params{}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("kernel on an accepted blob: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("BFS/CONN on an accepted blob did not finish")
		}
	})
}
