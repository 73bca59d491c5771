package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// ReferenceWriteEdgeList is the .e writer the block writer is checked
// against: one fmt.Fprintf per edge through a bufio.Writer, in
// Edges/EdgesW order. It is exported for the external graph_test
// package's tests and benchmark.
func ReferenceWriteEdgeList(g *Graph, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var err error
	if g.Weighted() {
		g.EdgesW(func(u, v VertexID, wt float64) {
			if err != nil {
				return
			}
			_, err = fmt.Fprintf(bw, "%d %d %s\n", g.Label(u), g.Label(v),
				strconv.FormatFloat(wt, 'g', -1, 64))
		})
	} else {
		g.Edges(func(u, v VertexID) {
			if err != nil {
				return
			}
			_, err = fmt.Fprintf(bw, "%d %d\n", g.Label(u), g.Label(v))
		})
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReferenceWriteVertexList is the fmt-based .v writer.
func ReferenceWriteVertexList(g *Graph, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for v := 0; v < g.n; v++ {
		if _, err := fmt.Fprintf(bw, "%d\n", g.Label(VertexID(v))); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EdgeBlockArcs exposes the writer's block size to the graph_test package.
const EdgeBlockArcs = edgeBlockArcs

// CheckWriterMatchesReference fails t unless g's .v bytes and its .e
// bytes at each worker count equal the reference writers' bytes.
func CheckWriterMatchesReference(t testing.TB, g *Graph, workers ...int) {
	t.Helper()
	var want, got bytes.Buffer
	if err := ReferenceWriteVertexList(g, &want); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteVertexList(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: .v differs from the reference (%d vs %d bytes)", g.Name(), got.Len(), want.Len())
	}
	want.Reset()
	if err := ReferenceWriteEdgeList(g, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		got.Reset()
		if err := g.writeEdgeList(&got, w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: .e at workers=%d differs from the reference (%d vs %d bytes)", g.Name(), w, got.Len(), want.Len())
		}
	}
}

// writerShapes returns the graphs the writer must format like the
// reference: each direction weighted and not, extreme labels and
// weights, a hub above the block size, isolated vertices, no edges.
func writerShapes(t *testing.T) []*Graph {
	t.Helper()
	var out []*Graph
	// A ring plus chords over 3000 vertices, with isolated vertices at
	// both ends of the ID range.
	n := 3000
	var srcs, dsts []VertexID
	for v := 5; v < n-5; v++ {
		srcs = append(srcs, VertexID(v), VertexID(v))
		dsts = append(dsts, VertexID(5+(v-4)%(n-10)), VertexID(5+(v*7)%(n-10)))
	}
	for _, directed := range []bool{true, false} {
		for _, weighted := range []bool{false, true} {
			var ws []float64
			if weighted {
				ws = make([]float64, len(srcs))
				for i := range ws {
					ws[i] = float64(i%97) / 7
				}
			}
			name := fmt.Sprintf("ring-directed=%t-weighted=%t", directed, weighted)
			out = append(out, FromArcs(name, n, slices.Clone(srcs), slices.Clone(dsts), ws, directed, 1))
		}
	}

	// Negative and large labels, extreme weights.
	labelled := FromArcs("labels", 6,
		[]VertexID{0, 1, 2, 3, 4, 5, 0},
		[]VertexID{1, 2, 3, 4, 5, 0, 3},
		[]float64{0, 5e-324, 0.1, 1e300, 1.0 / 3, 2, math.MaxFloat64}, false, 1)
	labelled.labels = []int64{-1 << 62, 1 << 62, -7, 0, math.MaxInt64, math.MinInt64}
	out = append(out, labelled)

	// A hub of degree above the block size beside a few small vertices.
	hubN := edgeBlockArcs + 500
	var hs, hd []VertexID
	for v := 1; v < hubN; v++ {
		hs, hd = append(hs, 0), append(hd, VertexID(v))
	}
	hs, hd = append(hs, 3, 4), append(hd, 4, 5)
	for _, directed := range []bool{true, false} {
		out = append(out, FromArcs(fmt.Sprintf("hub-directed=%t", directed), hubN, slices.Clone(hs), slices.Clone(hd), nil, directed, 1))
	}

	// No edges at all, and a single vertex.
	out = append(out, FromArcs("no-edges", 40, nil, nil, nil, false, 1))
	out = append(out, FromArcs("one-vertex", 1, nil, nil, nil, true, 1))
	return out
}

func TestWriterMatchesReferenceOnShapes(t *testing.T) {
	for _, g := range writerShapes(t) {
		CheckWriterMatchesReference(t, g, 1, 2, 3, 8)
	}
}

// failAfter accepts k bytes, then fails every write.
type failAfter struct {
	k   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.k {
		f.k -= len(p)
		return len(p), nil
	}
	n := f.k
	f.k = 0
	return n, f.err
}

// TestWriteEdgeListReturnsWriteError cuts the output before, at and
// across a block boundary: every cut surfaces the writer's error.
func TestWriteEdgeListReturnsWriteError(t *testing.T) {
	hubN := edgeBlockArcs + 500
	var srcs, dsts []VertexID
	for v := 1; v < hubN; v++ {
		srcs, dsts = append(srcs, 0, VertexID(v)), append(dsts, VertexID(v), VertexID((v*13)%hubN))
	}
	g := FromArcs("cut", hubN, srcs, dsts, nil, true, 1)
	cuts := g.edgeBlocks()
	if len(cuts) < 4 {
		t.Fatalf("want at least 3 blocks, got cuts %v", cuts)
	}
	first := len(g.appendEdges(nil, cuts[0], cuts[1]))
	var full bytes.Buffer
	if err := ReferenceWriteEdgeList(g, &full); err != nil {
		t.Fatal(err)
	}
	errCut := errors.New("disk full")
	for _, k := range []int{0, first - 1, first, first + 1, full.Len() - 1} {
		for _, workers := range []int{1, 2, 3} {
			err := g.writeEdgeList(&failAfter{k: k, err: errCut}, workers)
			if !errors.Is(err, errCut) {
				t.Errorf("cut at %d of %d bytes (block boundary %d), workers=%d: err = %v, want %v", k, full.Len(), first, workers, err, errCut)
			}
		}
	}
}

// TestWriteFileAtomicKeepsOldFile fails the write after k bytes: the
// file already at the path keeps its bytes and no temporary file stays.
func TestWriteFileAtomicKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.e")
	old := []byte("1 2\n2 3\n3 1\n")
	errCut := errors.New("disk full")
	for _, k := range []int{0, 3, 100} {
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		err := writeFileAtomic(path, func(w io.Writer) error {
			if _, err := w.Write(bytes.Repeat([]byte("9"), k)); err != nil {
				return err
			}
			return errCut
		})
		if !errors.Is(err, errCut) {
			t.Fatalf("k=%d: err = %v, want %v", k, err, errCut)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, old) {
			t.Fatalf("k=%d: file at the path is %q (err %v), want the old %q", k, got, err, old)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) != 0 {
			t.Fatalf("k=%d: temporary files left behind: %v", k, tmps)
		}
	}
	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "5 6\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "5 6\n" {
		t.Fatalf("successful write left %q", got)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("successful write left mode %v (err %v), want -rw-r--r--", fi.Mode(), err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a successful write, want 1", len(entries))
	}
}
