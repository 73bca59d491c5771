package graph

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// readByLines is the reference loader the chunked ingest is checked
// against: a line-at-a-time bufio.Scanner over each input, one Builder
// call per line, and a sequential Build. Its errors read like
// ReadGraph's.
func readByLines(edges, vertices io.Reader, opts LoadOptions) (*Graph, error) {
	b := opts.builder()
	if vertices != nil {
		err := scanLines(vertices, func(raw []byte) error {
			id, data, err := parseVertexLine(raw)
			if data {
				b.AddVertex(id)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	} else {
		// Force label mode so edge files with sparse IDs densify.
		b.useLabels = true
		b.ext2int = make(map[int64]VertexID)
	}
	var decided, weighted bool
	err := scanLines(edges, func(raw []byte) error {
		l, err := splitEdgeLine(raw)
		if err != nil || !l.data {
			return err
		}
		if !decided {
			decided, weighted = true, l.weightField != nil
		}
		switch {
		case l.weightField == nil && weighted:
			return fmt.Errorf("edge %q has no weight but earlier edges are weighted", l.text)
		case l.weightField == nil:
			b.AddEdge(l.src, l.dst)
		case !weighted:
			return fmt.Errorf("edge %q has a weight column but earlier edges do not", l.text)
		default:
			w, err := l.weight()
			if err != nil {
				return err
			}
			b.AddEdgeWeighted(l.src, l.dst, w)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// scanLines calls fn on every line of r and prefixes its first error
// with the line number.
func scanLines(r io.Reader, fn func(raw []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if err := fn(sc.Bytes()); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	return sc.Err()
}

// sameOutcome requires two loads to agree: equal errors, or
// byte-identical graphs.
func sameOutcome(t *testing.T, label string, want *Graph, wantErr error, got *Graph, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: reference err %v, loader err %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error mismatch:\n  reference: %v\n  loader:    %v", label, wantErr, gotErr)
		}
		return
	}
	if diff := graphDiff(want, got); diff != "" {
		t.Fatalf("%s: %s", label, diff)
	}
}

// loadBoth loads the same in-memory .e/.v pair with the reference
// reader and with ReadGraph at one worker and at workers, and requires
// identical outcomes. It returns the reference graph (nil on an error).
func loadBoth(t *testing.T, edata, vdata string, opts LoadOptions, workers int) *Graph {
	t.Helper()
	vertices := func() io.Reader {
		if vdata == "" {
			return nil
		}
		return strings.NewReader(vdata)
	}
	want, wantErr := readByLines(strings.NewReader(edata), vertices(), opts)
	for _, w := range []int{1, workers} {
		o := opts
		o.Workers = w
		got, gotErr := ReadGraph(strings.NewReader(edata), vertices(), o)
		sameOutcome(t, fmt.Sprintf("workers=%d", w), want, wantErr, got, gotErr)
	}
	return want
}

// randomEdgeText synthesizes an .e corpus with the loader's whole
// surface: sparse/negative external IDs, comments, CRLF endings, extra
// whitespace, duplicate edges, self loops, and (optionally) weights
// with trailing property columns.
func randomEdgeText(seed int64, lines int, weighted bool) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	id := func() int64 {
		switch r.Intn(4) {
		case 0:
			return int64(r.Intn(50)) // dense collisions
		case 1:
			return -int64(r.Intn(1000)) // negative IDs
		case 2:
			return int64(r.Intn(1_000_000_000)) * 1000 // sparse
		default:
			return int64(r.Intn(5000))
		}
	}
	for i := 0; i < lines; i++ {
		switch r.Intn(12) {
		case 0:
			b.WriteString("# comment line\n")
			continue
		case 1:
			b.WriteString("%% also a comment\n")
			continue
		case 2:
			b.WriteString("   \n")
			continue
		}
		u, v := id(), id()
		if r.Intn(20) == 0 {
			v = u // self loop
		}
		sep := " "
		if r.Intn(5) == 0 {
			sep = "\t"
		}
		b.WriteString(strconv.FormatInt(u, 10))
		b.WriteString(sep)
		b.WriteString(strconv.FormatInt(v, 10))
		if weighted {
			fmt.Fprintf(&b, " %g", float64(r.Intn(1000))/8)
			if r.Intn(6) == 0 {
				b.WriteString(" 1234567890") // trailing property column
			}
		}
		if r.Intn(7) == 0 {
			b.WriteString("\r")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestParallelLoadMatchesSequential(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		for _, directed := range []bool{false, true} {
			for _, workers := range []int{2, 3, 8} {
				name := fmt.Sprintf("weighted=%v/directed=%v/workers=%d", weighted, directed, workers)
				t.Run(name, func(t *testing.T) {
					edata := randomEdgeText(int64(workers), 3000, weighted)
					// Strip the trailing newline on some variants so the
					// final unterminated line is covered too.
					if workers%2 == 1 {
						edata = strings.TrimSuffix(edata, "\n")
					}
					g := loadBoth(t, edata, "", LoadOptions{Directed: directed, Name: "rand"}, workers)
					if g.NumVertices() == 0 || g.NumEdges() == 0 {
						t.Fatal("degenerate corpus")
					}
				})
			}
		}
	}
}

func TestParallelLoadWithVertexFile(t *testing.T) {
	// The .v file numbers its IDs first, in file order, including
	// isolated vertices and property columns; endpoints missing from it
	// are numbered after them in first-occurrence order, src before dst.
	var vb strings.Builder
	vb.WriteString("# ids with property columns\n")
	for i := 0; i < 900; i++ {
		fmt.Fprintf(&vb, "%d name-%d\n", i*7, i)
	}
	vdata := vb.String()
	r := rand.New(rand.NewSource(7))
	// edges draws n weighted edges between the first 899 listed IDs;
	// the last listed ID, 6293, gets no edge from it.
	edges := func(n int) string {
		var eb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&eb, "%d %d 0.5\n", r.Intn(899)*7, r.Intn(899)*7)
		}
		return eb.String()
	}
	cases := []struct {
		name         string
		edata, vdata string
		tail         []int64 // labels after the first 900
	}{
		{"one-miss-at-the-end", edges(2500) + "123456789 0 2.25\n", vdata, []int64{123456789}},
		{
			// The same misses recur in later chunks, as src and as dst.
			"misses-in-several-chunks",
			edges(600) + "-1 0 1\n" + edges(600) + "7 -2 1\n-1 -3 1\n" + edges(600) + "-3 -2 1\n-4 -1 1\n" + edges(600),
			vdata, []int64{-1, -2, -3, -4},
		},
		{
			// A repeated .v line keeps the ID's first number; 5 is a new
			// .v ID after the repeats.
			"duplicated-vertex-line",
			edges(2500) + "5 14 1\n",
			strings.Replace(vdata, "3500 name-500\n", "3500 name-500\n14 again\n", 1) + "0\n5\n",
			[]int64{5},
		},
		{"listed-vertex-first-edge-late", edges(2500) + "6293 0 1.5\n", vdata, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range []int{2, 5, 8} {
				g := loadBoth(t, c.edata, c.vdata, LoadOptions{Directed: true, Name: "vfile"}, workers)
				if g.NumVertices() != 900+len(c.tail) {
					t.Fatalf("vertices = %d, want 900 listed + %d missing", g.NumVertices(), len(c.tail))
				}
				if g.Label(VertexID(899)) != 6293 {
					t.Fatalf("label[899] = %d, want the last listed ID", g.Label(VertexID(899)))
				}
				for k, want := range c.tail {
					if got := g.Label(VertexID(900 + k)); got != want {
						t.Fatalf("label[%d] = %d, want %d", 900+k, got, want)
					}
				}
			}
		})
	}
}

func TestInternFirstOccurrenceOrder(t *testing.T) {
	// Labels densify in first-occurrence order (src before dst, file
	// order) — a line-by-line interner's order — after the .v IDs in
	// .v file order. The edge lines repeat IDs across chunks.
	edata := "500 7\n7 -3\n-3 500\n900 901\n901 42\n7 42\n"
	cases := []struct {
		vdata string
		want  []int64
	}{
		{"", []int64{500, 7, -3, 900, 901, 42}},
		{"901\n-3\n901\n", []int64{901, -3, 500, 7, 900, 42}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 4, 8} {
			var vertices io.Reader
			if c.vdata != "" {
				vertices = strings.NewReader(c.vdata)
			}
			g, err := ReadGraph(strings.NewReader(edata), vertices, LoadOptions{Directed: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(g.Labels(), c.want) {
				t.Fatalf("vertices %q, workers=%d: label order %v, want %v", c.vdata, workers, g.Labels(), c.want)
			}
		}
	}
}

// TestDeterministicParseErrors pins the satellite guarantee: a
// malformed line reports the same line number and message no matter
// how many workers parsed the file.
func TestDeterministicParseErrors(t *testing.T) {
	pad := func(lines int) string {
		var b strings.Builder
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&b, "%d %d\n", i, i+1)
		}
		return b.String()
	}
	padW := func(lines int) string {
		var b strings.Builder
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&b, "%d %d 1.5\n", i, i+1)
		}
		return b.String()
	}
	cases := []struct {
		name  string
		edata string
		want  string
	}{
		{"malformed-weight-mid-file", padW(1500) + "3 4 banana\n" + padW(40), "line 1501: bad edge weight \"banana\""},
		{"bad-edge-line", pad(700) + "oops\n" + pad(800), "line 701: bad edge line \"oops\""},
		{"weight-appears-late", pad(1200) + "5 6 2.5\n" + pad(100), "line 1201: edge \"5 6 2.5\" has a weight column but earlier edges do not"},
		{"weight-disappears-late", padW(990) + "8 9\n" + padW(500), "line 991: edge \"8 9\" has no weight but earlier edges are weighted"},
		{"negative-weight", padW(2000) + "1 2 -4\n", "line 2001: edge weight -4 must be finite and non-negative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for workers := 1; workers <= 9; workers++ {
				_, err := ReadGraph(strings.NewReader(c.edata), nil, LoadOptions{Workers: workers})
				if err == nil {
					t.Fatalf("workers=%d: no error", workers)
				}
				if err.Error() != c.want {
					t.Fatalf("workers=%d: error %q, want %q", workers, err, c.want)
				}
			}
		})
	}
}

func TestDeterministicVertexFileErrors(t *testing.T) {
	var vb strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&vb, "%d\n", i)
	}
	vb.WriteString("notanid\n")
	for workers := 1; workers <= 6; workers++ {
		_, err := ReadGraph(strings.NewReader("0 1\n"), strings.NewReader(vb.String()),
			LoadOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		want := `line 1001: bad vertex id "notanid"`
		if err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", workers, err, want)
		}
	}
}

// TestLoadEdgeListWrapsBuildError pins the satellite fix: builder
// errors surface path-qualified like every other load error.
func TestLoadEdgeListWrapsBuildError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.e")
	if err := os.WriteFile(path, []byte("# only comments\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		_, err := LoadEdgeList(path, "", LoadOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: empty graph loaded", workers)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("workers=%d: error %q not qualified with %q", workers, err, path)
		}
		if !strings.Contains(err.Error(), "empty graph") {
			t.Errorf("workers=%d: error %q does not surface the builder error", workers, err)
		}
	}
}

func TestLoadEdgeListParallelFiles(t *testing.T) {
	// End-to-end through real files: LoadEdgeList at one and at four
	// workers, byte-identical to the reference reader.
	dir := t.TempDir()
	edata := randomEdgeText(42, 4000, true)
	epath := filepath.Join(dir, "g.e")
	if err := os.WriteFile(epath, []byte(edata), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := readByLines(strings.NewReader(edata), nil, LoadOptions{Directed: true, Name: "g"})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := LoadEdgeList(epath, "", LoadOptions{Directed: true, Workers: workers})
		sameOutcome(t, fmt.Sprintf("workers=%d", workers), want, nil, got, err)
	}
	// Vertex-file errors stay qualified with the vertex path.
	vpath := filepath.Join(dir, "g.v")
	if err := os.WriteFile(vpath, []byte("0\nbad\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadEdgeList(epath, vpath, LoadOptions{Workers: 8})
	if err == nil || !strings.Contains(err.Error(), vpath) {
		t.Fatalf("vertex error not qualified with the .v path: %v", err)
	}
}

// TestLongLineLoadsAtEveryWorkerCount loads a .e file whose first edge
// line holds 17 MiB of spaces — longer than any fixed line buffer — at
// every worker count from one to eight, through both entry points.
func TestLongLineLoadsAtEveryWorkerCount(t *testing.T) {
	edata := "1" + strings.Repeat(" ", 17<<20) + "2\n3 1\n"
	epath := filepath.Join(t.TempDir(), "long.e")
	if err := os.WriteFile(epath, []byte(edata), 0o644); err != nil {
		t.Fatal(err)
	}
	var first *Graph
	for workers := 1; workers <= 8; workers++ {
		read, err := ReadGraph(strings.NewReader(edata), nil, LoadOptions{Name: "long", Workers: workers})
		if err != nil {
			t.Fatalf("ReadGraph workers=%d: %v", workers, err)
		}
		loaded, err := LoadEdgeList(epath, "", LoadOptions{Workers: workers})
		if err != nil {
			t.Fatalf("LoadEdgeList workers=%d: %v", workers, err)
		}
		for _, g := range []*Graph{read, loaded} {
			if g.NumVertices() != 3 || g.NumEdges() != 2 {
				t.Fatalf("workers=%d: %d vertices, %d edges; want 3, 2", workers, g.NumVertices(), g.NumEdges())
			}
			if first == nil {
				first = g
			} else if diff := graphDiff(first, g); diff != "" {
				t.Fatalf("workers=%d: %s", workers, diff)
			}
		}
	}
}
