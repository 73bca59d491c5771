package graph

import (
	"bytes"
	"fmt"
	"log/slog"
	"slices"
	"time"

	"graphalytics/internal/par"
	"graphalytics/internal/telemetry"
)

// Text ingest (the .v/.e loader, at every worker count):
//
//  1. the file is split into newline-aligned byte chunks, one per
//     worker, and each chunk is parsed independently into external-ID
//     arc arrays (weights included once the chunk sees its first edge
//     line);
//  2. chunk outcomes are reconciled in file order: the first decided
//     chunk fixes the file-level weighted/unweighted mode, later
//     chunks that disagree fail at their first edge line, and the
//     first error in file order wins — so a malformed line reports
//     the same line number no matter how many workers parsed the file
//     (each chunk counts its lines; prefix sums recover absolute
//     numbers);
//  3. internFirst densifies the external IDs in first-occurrence
//     order (below);
//  4. the dense arc arrays and the label table go to the builder, and
//     BuildParallel builds the CSR.
//
// internFirst numbers the .v IDs first, in file order, in one map.
// Each chunk worker then resolves its endpoints (src before dst)
// against that map, read-only, and numbers the IDs missing from it in
// the chunk's own first-occurrence order, after the .v IDs. Merging
// the chunks' new IDs in file order gives them their global numbers:
// an ID first occurs in the earliest chunk that holds it, so this is
// the order in which a line-at-a-time reader would number them. A
// last parallel pass rewrites the chunk-local numbers to global ones.
//
// At one worker the file is one chunk and every fan-out has one part;
// the steps, and so the graph and the errors, are the same.

// vertexFileError marks an ingest error as originating in the .v file
// so LoadEdgeList can qualify it with the right path (ReadGraph unwraps
// it).
type vertexFileError struct{ err error }

func (e *vertexFileError) Error() string { return e.err.Error() }
func (e *vertexFileError) Unwrap() error { return e.err }

// ingest builds the graph of a .e text and, when haveVerts is true, of
// its .v text vdata: the one body of LoadEdgeList and ReadGraph.
func ingest(edata, vdata []byte, haveVerts bool, opts LoadOptions) (*Graph, error) {
	start := time.Now()
	b, workers := opts.builder(), buildWorkers(opts.Workers)
	var vids []int64
	if haveVerts {
		sp := telemetry.StartSpan("ingest", "parse-vertices")
		sp.SetAttr("bytes", len(vdata))
		var err error
		vids, err = ingestVertices(vdata, workers)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	parseStart := time.Now()
	if err := ingestEdges(b, edata, vids, workers); err != nil {
		return nil, err
	}
	parseDur := time.Since(parseStart)
	sp := telemetry.StartSpan("ingest", "build-csr")
	sp.SetAttr("workers", workers)
	buildStart := time.Now()
	g, err := b.BuildParallel(workers)
	sp.End()
	if err != nil {
		return nil, err
	}
	slog.Debug("graph: ingest complete",
		"vertices", g.NumVertices(), "edges", g.NumEdges(), "workers", workers,
		"bytes", len(edata)+len(vdata),
		"parse", parseDur, "build", time.Since(buildStart), "total", time.Since(start))
	return g, nil
}

// splitLines splits data into up to parts newline-aligned chunks of
// roughly equal byte size. Every chunk but the last ends just past a
// '\n'; concatenating the chunks reproduces data exactly.
func splitLines(data []byte, parts int) [][]byte {
	if parts < 1 {
		parts = 1
	}
	var out [][]byte
	start := 0
	for p := 1; p < parts && start < len(data); p++ {
		target := len(data) * p / parts
		if target <= start {
			continue
		}
		nl := bytes.IndexByte(data[target:], '\n')
		if nl < 0 {
			break
		}
		out = append(out, data[start:target+nl+1])
		start = target + nl + 1
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}

// countLines counts text lines: one per newline, plus a final
// unterminated line.
func countLines(data []byte) int {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

// ---------------------------------------------------------------------
// Vertex files.

type vertexChunk struct {
	ids     []int64
	lines   int
	err     error // bare error; "line %d: " is prefixed at reconcile
	errLine int
}

// ingestVertices parses .v chunks in parallel and returns the IDs in
// file order, repeats included.
func ingestVertices(vdata []byte, workers int) ([]int64, error) {
	chunks := splitLines(vdata, workers)
	results := make([]vertexChunk, len(chunks))
	par.Do(len(chunks), func(i int) error {
		results[i] = parseVertexChunk(chunks[i])
		return nil
	})
	lineBase := 0
	ids := make([][]int64, len(results))
	for i, r := range results {
		if r.err != nil {
			return nil, &vertexFileError{fmt.Errorf("line %d: %w", lineBase+r.errLine, r.err)}
		}
		ids[i] = r.ids
		lineBase += r.lines
	}
	return slices.Concat(ids...), nil
}

func parseVertexChunk(data []byte) vertexChunk {
	var c vertexChunk
	for len(data) > 0 {
		var raw []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			raw, data = data[:nl], data[nl+1:]
		} else {
			raw, data = data, nil
		}
		c.lines++
		id, isData, err := parseVertexLine(raw)
		if err != nil {
			c.err, c.errLine = err, c.lines
			c.lines += countLines(data)
			break
		}
		if isData {
			c.ids = append(c.ids, id)
		}
	}
	return c
}

// ---------------------------------------------------------------------
// Edge files.

type edgeChunk struct {
	lines      int
	srcs, dsts []int64
	ws         []float64 // non-nil iff the chunk decided weighted
	decided    bool
	weighted   bool
	firstLine  int    // relative line of the first edge line
	firstText  []byte // trimmed first edge line, for mismatch errors
	err        error  // bare error; "line %d: " is prefixed at reconcile
	errLine    int
}

func (c *edgeChunk) fail(err error, line int, rest []byte) {
	c.err, c.errLine = err, line
	c.lines += countLines(rest)
}

func parseEdgeChunk(data []byte) edgeChunk {
	var c edgeChunk
	for len(data) > 0 {
		var raw []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			raw, data = data[:nl], data[nl+1:]
		} else {
			raw, data = data, nil
		}
		c.lines++
		l, err := splitEdgeLine(raw)
		if err != nil {
			c.fail(err, c.lines, data)
			break
		}
		if !l.data {
			continue
		}
		if !c.decided {
			c.decided, c.weighted = true, l.weightField != nil
			c.firstLine, c.firstText = c.lines, l.text
		}
		if l.weightField == nil {
			if c.weighted {
				c.fail(fmt.Errorf("edge %q has no weight but earlier edges are weighted", l.text), c.lines, data)
				break
			}
		} else {
			if !c.weighted {
				c.fail(fmt.Errorf("edge %q has a weight column but earlier edges do not", l.text), c.lines, data)
				break
			}
			w, werr := l.weight()
			if werr != nil {
				c.fail(werr, c.lines, data)
				break
			}
			c.ws = append(c.ws, w)
		}
		c.srcs = append(c.srcs, l.src)
		c.dsts = append(c.dsts, l.dst)
	}
	return c
}

// ingestEdges parses .e chunks in parallel, reconciles the chunk
// outcomes in file order, densifies the external IDs after the .v IDs
// vids, and hands the arc arrays and the label table to the builder.
func ingestEdges(b *Builder, edata []byte, vids []int64, workers int) error {
	psp := telemetry.StartSpan("ingest", "parse-edges")
	psp.SetAttr("bytes", len(edata))
	psp.SetAttr("workers", workers)
	chunks := splitLines(edata, workers)
	results := make([]edgeChunk, len(chunks))
	par.Do(len(chunks), func(i int) error {
		results[i] = parseEdgeChunk(chunks[i])
		return nil
	})
	psp.End()

	// File-order reconciliation: the first decided chunk fixes the
	// weighted mode; a disagreeing chunk fails at its first edge line
	// (before any internal error it may also hold, which comes later in
	// the file); otherwise the first internal error wins. Line numbers
	// translate through per-chunk line counts.
	var decided, weighted bool
	lineBase := 0
	total := 0
	offsets := make([]int, len(results))
	for i := range results {
		r := &results[i]
		if r.decided {
			switch {
			case !decided:
				decided, weighted = true, r.weighted
			case r.weighted != weighted:
				if weighted {
					return fmt.Errorf("line %d: edge %q has no weight but earlier edges are weighted", lineBase+r.firstLine, r.firstText)
				}
				return fmt.Errorf("line %d: edge %q has a weight column but earlier edges do not", lineBase+r.firstLine, r.firstText)
			}
		}
		if r.err != nil {
			return fmt.Errorf("line %d: %w", lineBase+r.errLine, r.err)
		}
		lineBase += r.lines
		offsets[i] = total
		total += len(r.srcs)
	}

	srcs := make([]VertexID, total)
	dsts := make([]VertexID, total)
	var ws []float64
	if weighted {
		ws = make([]float64, total)
		par.Do(len(results), func(i int) error {
			copy(ws[offsets[i]:], results[i].ws)
			return nil
		})
	}
	isp := telemetry.StartSpan("ingest", "intern")
	isp.SetAttr("arcs", total)
	labels := internFirst(vids, results, offsets, srcs, dsts)
	isp.End()
	b.useLabels, b.labels = true, labels
	b.srcs, b.dsts, b.weights = srcs, dsts, ws
	b.hasEdges = total > 0
	return nil
}

// internFirst densifies external IDs in first-occurrence order: the .v
// IDs vids first, in file order, then the edge endpoints missing from
// them, in file order, src before dst (see the comment at the top of
// this file). It fills srcs and dsts and returns the label table.
func internFirst(vids []int64, results []edgeChunk, offsets []int, srcs, dsts []VertexID) []int64 {
	ids := make(map[int64]VertexID, len(vids))
	labels := make([]int64, 0, len(vids))
	for _, ext := range vids {
		if _, ok := ids[ext]; !ok {
			ids[ext] = VertexID(len(labels))
			labels = append(labels, ext)
		}
	}
	nv := VertexID(len(labels))

	// Each chunk numbers the IDs ids lacks from nv up, in the chunk's
	// first-occurrence order; fresh[i] lists them in that order.
	fresh := make([][]int64, len(results))
	par.Do(len(results), func(i int) error {
		r := &results[i]
		local := make(map[int64]VertexID)
		resolve := func(ext int64) VertexID {
			if id, ok := ids[ext]; ok {
				return id
			}
			if id, ok := local[ext]; ok {
				return id
			}
			id := nv + VertexID(len(fresh[i]))
			local[ext] = id
			fresh[i] = append(fresh[i], ext)
			return id
		}
		s, d := srcs[offsets[i]:][:len(r.srcs)], dsts[offsets[i]:][:len(r.srcs)]
		for j := range s {
			s[j] = resolve(r.srcs[j])
			d[j] = resolve(r.dsts[j])
		}
		return nil
	})

	// File-order merge: a chunk's new IDs take the next global numbers
	// unless an earlier chunk numbered them, and global[i] translates
	// chunk i's numbers. While no earlier chunk has numbered an ID, a
	// chunk's numbers are already the global ones and need no
	// translation. No chunk after the last looks its IDs up, so they
	// stay out of ids.
	global := make([][]VertexID, len(results))
	for i, f := range fresh {
		inPlace := VertexID(len(labels)) == nv
		g := make([]VertexID, len(f))
		for k, ext := range f {
			id, ok := ids[ext]
			if !ok {
				id = VertexID(len(labels))
				labels = append(labels, ext)
				if i < len(fresh)-1 {
					ids[ext] = id
				}
			}
			g[k] = id
		}
		if !inPlace {
			global[i] = g
		}
	}

	par.Do(len(results), func(i int) error {
		g := global[i]
		if len(g) == 0 {
			return nil
		}
		n := len(results[i].srcs)
		s, d := srcs[offsets[i]:][:n], dsts[offsets[i]:][:n]
		for j := range s {
			if s[j] >= nv {
				s[j] = g[s[j]-nv]
			}
			if d[j] >= nv {
				d[j] = g[d[j]-nv]
			}
		}
		return nil
	})
	return labels
}
