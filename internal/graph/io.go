package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"graphalytics/internal/par"
)

// The Graphalytics on-disk format is a pair of text files:
//
//	<name>.v   one external vertex identifier per line
//	<name>.e   one edge per line: "<src> <dst> [<weight>]"
//	           (whitespace separated)
//
// Lines starting with '#' or '%' are comments. The .v file is optional
// when loading; without it, the vertex set is the set of edge endpoints.
//
// The optional third column is an LDBC-style float64 edge weight, used
// by the weighted workloads (SSSP). Weight presence is auto-detected
// from the first edge line; files mixing weighted and unweighted lines,
// or carrying malformed or negative/non-finite weights, are rejected
// with a line-numbered error.
//
// Loading reads the files into memory and runs them through the
// chunked ingest pipeline (see ingest.go): newline-aligned byte chunks
// parsed by a worker pool, one interner that numbers the .v IDs first
// and the other endpoints in first-occurrence order, and parallel CSR
// construction. There is one loader at every worker count; the worker
// count changes neither the graph (byte-identical) nor the errors
// (first in file order, line-numbered). The loader holds the file
// bytes for the whole load, so its peak memory is the file size plus
// the parsed arcs.
//
// Writing cuts the vertex range into blocks of about edgeBlockArcs
// arcs. Batches of blocks are formatted in parallel, each into its
// worker's buffer, and written in block order, so the .e file is the
// same bytes at any worker count and the writer holds one block per
// worker, not the file. SaveFiles writes each file under a temporary
// name and renames it into place once complete, so a failed or killed
// write never leaves a truncated file that would load as another graph.

// LoadOptions configures graph loading.
type LoadOptions struct {
	Directed  bool   // interpret edges as directed arcs
	Name      string // dataset name; defaults to the file base name
	DropLoops bool   // drop self-loop edges
	// Workers sets ingest parallelism: the number of chunks parsed and
	// interned at once, and CSR build workers. 0 selects GOMAXPROCS; 1
	// parses the file as one chunk.
	Workers int
}

func (opts LoadOptions) builder() *Builder {
	bopts := []BuilderOption{Directed(opts.Directed), Dedup(), WithName(opts.Name)}
	if opts.Directed {
		bopts = append(bopts, WithReverse())
	}
	if opts.DropLoops {
		bopts = append(bopts, DropSelfLoops())
	}
	return NewBuilder(bopts...)
}

// LoadEdgeList reads a graph from edgePath (.e format) and, if vertexPath
// is non-empty, the vertex file (.v format). Errors are qualified with
// the path of the file they come from.
func LoadEdgeList(edgePath, vertexPath string, opts LoadOptions) (*Graph, error) {
	if opts.Name == "" {
		opts.Name = strings.TrimSuffix(filepath.Base(edgePath), filepath.Ext(edgePath))
	}
	var vdata []byte
	if vertexPath != "" {
		var err error
		if vdata, err = os.ReadFile(vertexPath); err != nil {
			return nil, fmt.Errorf("graph: open vertex file: %w", err)
		}
	}
	edata, err := os.ReadFile(edgePath)
	if err != nil {
		return nil, fmt.Errorf("graph: open edge file: %w", err)
	}
	g, err := ingest(edata, vdata, vertexPath != "", opts)
	if err == nil {
		return g, nil
	}
	if verr := (*vertexFileError)(nil); errors.As(err, &verr) {
		return nil, fmt.Errorf("graph: %s: %w", vertexPath, verr.err)
	}
	return nil, fmt.Errorf("graph: %s: %w", edgePath, err)
}

// ReadGraph parses a graph from in-memory readers (vertices may be nil).
// Errors carry line numbers but no file name.
func ReadGraph(edges io.Reader, vertices io.Reader, opts LoadOptions) (*Graph, error) {
	var vdata []byte
	if vertices != nil {
		var err error
		if vdata, err = io.ReadAll(vertices); err != nil {
			return nil, err
		}
	}
	edata, err := io.ReadAll(edges)
	if err != nil {
		return nil, err
	}
	g, err := ingest(edata, vdata, vertices != nil, opts)
	if verr := (*vertexFileError)(nil); errors.As(err, &verr) {
		return nil, verr.err
	}
	return g, err
}

// parseVertexLine parses one .v line: the leading field is the vertex
// identifier, further property columns are ignored. data is false for
// blank and comment lines.
func parseVertexLine(raw []byte) (id int64, data bool, err error) {
	text := bytes.TrimSpace(raw)
	if len(text) == 0 || text[0] == '#' || text[0] == '%' {
		return 0, false, nil
	}
	// Vertex files may carry property columns; the first field is the ID.
	if i := bytes.IndexAny(text, " \t"); i >= 0 {
		text = text[:i]
	}
	id, perr := strconv.ParseInt(string(text), 10, 64)
	if perr != nil {
		return 0, false, fmt.Errorf("bad vertex id %q", text)
	}
	return id, true, nil
}

// edgeLine is the mode-independent parse of one .e line: the weight
// column is captured but not validated, because whether it may appear
// at all depends on the file-level weighted/unweighted decision.
type edgeLine struct {
	src, dst    int64
	weightField []byte // first column after dst; nil = none
	text        []byte // trimmed line, for error messages
	data        bool   // false for blank and comment lines
}

// splitEdgeLine parses one .e line (without its newline; a trailing
// '\r' is treated as whitespace). Columns after the weight are ignored
// — some exports carry timestamps or properties after it.
func splitEdgeLine(raw []byte) (edgeLine, error) {
	s := bytes.TrimSpace(raw)
	if len(s) == 0 || s[0] == '#' || s[0] == '%' {
		return edgeLine{}, nil
	}
	src, rest, ok := cutInt(s)
	if !ok {
		return edgeLine{}, fmt.Errorf("bad edge line %q", s)
	}
	dst, rest, ok := cutInt(rest)
	if !ok {
		return edgeLine{}, fmt.Errorf("bad edge line %q", s)
	}
	l := edgeLine{src: src, dst: dst, text: s, data: true}
	rest = bytes.TrimSpace(rest)
	if len(rest) > 0 {
		field := rest
		if i := bytes.IndexAny(field, " \t,"); i >= 0 {
			field = field[:i]
		}
		l.weightField = field
	}
	return l, nil
}

// weight parses and validates the line's weight column.
func (l edgeLine) weight() (float64, error) {
	w, err := strconv.ParseFloat(string(l.weightField), 64)
	if err != nil {
		return 0, fmt.Errorf("bad edge weight %q", l.weightField)
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return 0, fmt.Errorf("edge weight %v must be finite and non-negative", w)
	}
	return w, nil
}

// cutInt parses a leading base-10 integer from s and returns the value,
// the remainder after separators, and whether parsing succeeded. It is a
// fast path replacement for Split+ParseInt on hot loader loops.
func cutInt(s []byte) (int64, []byte, bool) {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == ',') {
		i++
	}
	start := i
	neg := false
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		neg = s[i] == '-'
		i++
	}
	var v int64
	digits := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		v = v*10 + int64(s[i]-'0')
		i++
		digits++
	}
	if digits == 0 {
		return 0, s[start:], false
	}
	if neg {
		v = -v
	}
	return v, s[i:], true
}

// edgeBlockArcs is about the number of stored arcs one block of the
// .e writer covers. A block holds whole vertices, so a vertex of higher
// degree is a block of its own.
const edgeBlockArcs = 1 << 16

// WriteEdgeList writes the graph to w in .e format (one logical edge per
// line, external labels). Undirected graphs write each edge once (u ≤ v).
// Weighted graphs write the weight as a third column, so weighted
// graphs round-trip through the text format. Blocks are formatted on
// GOMAXPROCS workers; the bytes are the same at any worker count.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	return g.writeEdgeList(w, runtime.GOMAXPROCS(0))
}

// writeEdgeList formats batches of up to workers blocks in parallel,
// each block into its worker's reused buffer, and writes every batch to
// w in block order before formatting the next.
func (g *Graph) writeEdgeList(w io.Writer, workers int) error {
	cuts := g.edgeBlocks()
	blocks := len(cuts) - 1
	workers = max(1, min(workers, blocks))
	bufs := make([][]byte, workers)
	for first := 0; first < blocks; first += workers {
		batch := min(workers, blocks-first)
		par.Do(batch, func(i int) error {
			bufs[i] = g.appendEdges(bufs[i][:0], cuts[first+i], cuts[first+i+1])
			return nil
		})
		for _, buf := range bufs[:batch] {
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// edgeBlocks cuts the vertex range into blocks of at least
// edgeBlockArcs arcs each (the last may hold fewer) and returns the
// block boundaries: block i is vertices [cuts[i], cuts[i+1]).
func (g *Graph) edgeBlocks() []int {
	cuts := []int{0}
	for v := 1; v <= g.n; v++ {
		if v == g.n || g.outIndex[v]-g.outIndex[cuts[len(cuts)-1]] >= edgeBlockArcs {
			cuts = append(cuts, v)
		}
	}
	return cuts
}

// appendEdges appends the .e lines of the edges leaving vertices
// [lo, hi) to buf.
func (g *Graph) appendEdges(buf []byte, lo, hi int) []byte {
	var src []byte // "<label(u)> "
	for u := lo; u < hi; u++ {
		adj := g.OutNeighbors(VertexID(u))
		ws := g.OutWeights(VertexID(u))
		first := 0
		if !g.directed {
			first, _ = slices.BinarySearch(adj, VertexID(u))
		}
		if first == len(adj) {
			continue
		}
		src = append(strconv.AppendInt(src[:0], g.Label(VertexID(u)), 10), ' ')
		for i := first; i < len(adj); i++ {
			buf = append(buf, src...)
			buf = strconv.AppendInt(buf, g.Label(adj[i]), 10)
			if ws != nil {
				buf = append(buf, ' ')
				buf = strconv.AppendFloat(buf, ws[i], 'g', -1, 64)
			}
			buf = append(buf, '\n')
		}
	}
	return buf
}

// WriteVertexList writes the graph's vertex set to w in .v format.
func (g *Graph) WriteVertexList(w io.Writer) error {
	const flushAt = 1 << 16
	buf := make([]byte, 0, flushAt+32)
	for v := range g.n {
		buf = append(strconv.AppendInt(buf, g.Label(VertexID(v)), 10), '\n')
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// SaveFiles writes <prefix>.v and <prefix>.e files for the graph. Each
// file appears under its name only once it is complete (see
// writeFileAtomic).
func (g *Graph) SaveFiles(prefix string) error {
	if err := writeFileAtomic(prefix+".v", g.WriteVertexList); err != nil {
		return err
	}
	return writeFileAtomic(prefix+".e", g.WriteEdgeList)
}

// writeFileAtomic writes path through write: into a temporary file in
// path's directory that is renamed onto path once write and Close have
// succeeded. On any error the temporary file is removed and a file
// already at path is left as it was, so a failed write never leaves a
// partial file under the final name, and a killed process leaves at
// most a stray "<name>.tmp*" beside it. There is no fsync: the
// guarantee does not cover a power loss or an operating-system crash.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	// CreateTemp makes the file private (0600); a saved graph gets the
	// mode os.Create gives under the common umask 022.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
