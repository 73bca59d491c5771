package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"graphalytics/internal/graph"
)

// ingest is the ingest_pipeline workload: no kernels run. A round writes
// each graph as text, loads it back with the vertex file (dense-ID path) and
// without it (interner path), writes and verifies the checksummed binary
// form, and hashes the content. The calls are the ones a user makes, so the
// replay round differs from the user-path round only in recording spans.
type ingest struct {
	sz     sizes
	logw   io.Writer
	dir    string
	graphs []ingestGraph

	loadAllocMB, loadS, loadWork float64
	rounds                       int
}

type ingestGraph struct {
	g         *graph.Graph
	hash      [32]byte
	connected int // vertices with at least one edge: what a load without the vertex file sees
}

func newIngest(sz sizes, logw io.Writer) *ingest { return &ingest{sz: sz, logw: logw} }

func (w *ingest) setup(seed uint64, root spanRef) error {
	dir, err := os.MkdirTemp("", "graphbench-ingest-")
	if err != nil {
		return err
	}
	w.dir = dir
	social, err := genSocial(root, "social-ingest", w.sz.ingestPersons, subSeed(seed, 1), true)
	if err != nil {
		return err
	}
	rm, err := genRMAT(root, "rmat-ingest", w.sz.ingestScale, subSeed(seed, 2))
	if err != nil {
		return err
	}
	for _, g := range []*graph.Graph{social, rm} {
		describeGraph(w.logw, g)
		hash, err := g.ContentHash()
		if err != nil {
			return err
		}
		connected := 0
		for v := 0; v < g.NumVertices(); v++ {
			if g.OutDegree(graph.VertexID(v)) > 0 {
				connected++
			}
		}
		w.graphs = append(w.graphs, ingestGraph{g, hash, connected})
	}
	return nil
}

func (w *ingest) round(ctx context.Context, i int, rec *recorder, root spanRef) error {
	// step times one call as an operation of the workload.
	step := func(name string, op int, fn func() error) (time.Duration, error) {
		sp := root.child(name, op)
		start := time.Now()
		err := fn()
		d := time.Since(start)
		sp.end()
		rec.op(d)
		return d, err
	}
	for k, ig := range w.graphs {
		g := ig.g
		prefix := filepath.Join(w.dir, g.Name())
		if _, err := step("graph.write_text", k, func() error { return g.SaveFiles(prefix) }); err != nil {
			return err
		}
		for _, withV := range []bool{true, false} {
			name, vpath, wantV := "graph.load_text_v", prefix+".v", g.NumVertices()
			if !withV {
				name, vpath, wantV = "graph.load_text_nov", "", ig.connected
			}
			var loaded *graph.Graph
			alloc0 := heapAllocBytes()
			d, err := step(name, k, func() (err error) {
				loaded, err = graph.LoadEdgeList(prefix+".e", vpath, graph.LoadOptions{Name: g.Name()})
				return err
			})
			w.loadAllocMB += float64(heapAllocBytes()-alloc0) / 1e6
			got := "nothing"
			if err == nil {
				got = loaded.String()
			}
			ok := err == nil && loaded.NumVertices() == wantV && loaded.NumEdges() == g.NumEdges()
			rec.check(ok, "%s of %s: err=%v, got %s, want V=%d E=%d", name, g.Name(), err, got, wantV, g.NumEdges())
			units := float64(int64(g.NumVertices()) + g.NumEdges())
			rec.addWork(units, d)
			w.loadWork += units
			w.loadS += d.Seconds()
		}
		galb := prefix + ".galb"
		if _, err := step("graph.write_galb", k, func() error {
			_, err := g.SaveBinaryChecksummed(galb)
			return err
		}); err != nil {
			return err
		}
		var loaded *graph.Graph
		_, err := step("graph.load_galb", k, func() (err error) {
			loaded, err = graph.LoadBinaryVerify(galb, 0)
			return err
		})
		if err != nil {
			rec.check(false, "verified load of %s: %v", galb, err)
			continue
		}
		var hash [32]byte
		_, err = step("graph.content_hash", k, func() (err error) {
			hash, err = loaded.ContentHash()
			return err
		})
		rec.check(err == nil && hash == ig.hash, "binary round trip of %s: err=%v, content hash differs: %t", g.Name(), err, hash != ig.hash)
	}
	w.rounds++
	return nil
}

func (w *ingest) finish(lv layerValues, _ summary) {
	if w.rounds > 0 {
		lv["graph.load_text.alloc_mb"] = w.loadAllocMB / float64(w.rounds)
	}
	if w.loadS > 0 {
		lv["graph.ingest_evps"] = w.loadWork / w.loadS
	}
}

func (w *ingest) close() {
	if err := os.RemoveAll(w.dir); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: removing %s: %v\n", w.dir, err)
	}
}
