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
//  3. external IDs densify either through the two-pass dense-ID fast
//     path (a .v file froze the interning table, workers do read-only
//     lookups, the rare unlisted endpoint is interned in a sequential
//     file-order fixup) or through the sharded interner (below);
//  4. the dense arc arrays feed Builder.AddEdges / BuildParallel.
//
// The sharded interner assigns dense IDs in first-occurrence order
// (file order, src before dst) without a global lock: each chunk worker
// tags every locally-new external ID with its global endpoint position
// (2*arc+side), buckets it by ID hash; each shard worker merges its
// buckets in chunk order keeping the smallest position per ID; the
// positions — unique by construction — are sorted once, and an ID's
// dense vertex number is the rank of its first position.
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
	if haveVerts {
		sp := telemetry.StartSpan("ingest", "parse-vertices")
		sp.SetAttr("bytes", len(vdata))
		err := ingestVertices(b, vdata, workers)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	parseStart := time.Now()
	if err := ingestEdges(b, edata, workers); err != nil {
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

// ingestVertices parses .v chunks in parallel and interns the IDs
// sequentially in file order (the interning table must reproduce the
// file's first-occurrence order exactly).
func ingestVertices(b *Builder, vdata []byte, workers int) error {
	chunks := splitLines(vdata, workers)
	results := make([]vertexChunk, len(chunks))
	par.Do(len(chunks), func(i int) error {
		results[i] = parseVertexChunk(chunks[i])
		return nil
	})
	lineBase := 0
	for _, r := range results {
		if r.err != nil {
			return &vertexFileError{fmt.Errorf("line %d: %w", lineBase+r.errLine, r.err)}
		}
		for _, id := range r.ids {
			b.AddVertex(id)
		}
		lineBase += r.lines
	}
	return nil
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
// outcomes in file order, densifies the external IDs, and hands the
// arc arrays to the builder.
func ingestEdges(b *Builder, edata []byte, workers int) error {
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
	if b.useLabels {
		// The builder is in label mode (a .v file interned vertices):
		// resolve against the frozen table and install the dense
		// arrays directly.
		isp.SetAttr("mode", "frozen")
		internFrozen(b, results, offsets, srcs, dsts)
		b.srcs, b.dsts, b.weights = srcs, dsts, ws
		b.hasEdges = total > 0
		isp.End()
		return nil
	}
	isp.SetAttr("mode", "sharded")
	b.SetLabels(internSharded(results, offsets, srcs, dsts, workers))
	isp.End()
	b.AddEdges(srcs, dsts, ws)
	return nil
}

// internFrozen is the two-pass dense-ID fast path used when a .v file
// populated the interning table: workers resolve endpoints against the
// frozen table concurrently, and endpoints missing from it (edges
// naming vertices the .v file omitted) are interned afterwards in
// file order, as a line-by-line reader would.
func internFrozen(b *Builder, results []edgeChunk, offsets []int, srcs, dsts []VertexID) {
	misses := make([][]int, len(results))
	par.Do(len(results), func(i int) error {
		r := &results[i]
		base := offsets[i]
		m := b.ext2int
		for j := range r.srcs {
			if id, ok := m[r.srcs[j]]; ok {
				srcs[base+j] = id
			} else {
				misses[i] = append(misses[i], 2*j)
			}
			if id, ok := m[r.dsts[j]]; ok {
				dsts[base+j] = id
			} else {
				misses[i] = append(misses[i], 2*j+1)
			}
		}
		return nil
	})
	for i := range results {
		r := &results[i]
		for _, p := range misses[i] {
			j := p / 2
			if p%2 == 0 {
				srcs[offsets[i]+j] = b.intern(r.srcs[j])
			} else {
				dsts[offsets[i]+j] = b.intern(r.dsts[j])
			}
		}
	}
}

// shardPending is one locally-new external ID tagged with its global
// first-occurrence endpoint position within the chunk.
type shardPending struct {
	ext int64
	pos int64
}

func shardOf(ext int64, shards int) int {
	x := uint64(ext) * 0x9E3779B97F4A7C15
	x ^= x >> 32
	return int(x % uint64(shards))
}

// internSharded densifies external IDs with per-shard maps while
// reproducing the first-occurrence order (see the package
// comment at the top of this file). It fills srcs/dsts and returns the
// label table.
func internSharded(results []edgeChunk, offsets []int, srcs, dsts []VertexID, workers int) []int64 {
	shards := workers
	// Phase 1: per-chunk local dedup, bucketed by shard. Positions are
	// 2*arc+side so src interns before dst.
	buckets := make([][][]shardPending, len(results))
	par.Do(len(results), func(i int) error {
		r := &results[i]
		seen := make(map[int64]struct{}, 1024)
		bk := make([][]shardPending, shards)
		base := 2 * int64(offsets[i])
		note := func(ext int64, pos int64) {
			if _, ok := seen[ext]; ok {
				return
			}
			seen[ext] = struct{}{}
			s := shardOf(ext, shards)
			bk[s] = append(bk[s], shardPending{ext: ext, pos: pos})
		}
		for j := range r.srcs {
			note(r.srcs[j], base+2*int64(j))
			note(r.dsts[j], base+2*int64(j)+1)
		}
		buckets[i] = bk
		return nil
	})

	// Phase 2: per-shard merge in chunk order keeps the smallest
	// (first-in-file) position per external ID.
	shardMaps := make([]map[int64]int64, shards)
	par.Do(shards, func(s int) error {
		m := make(map[int64]int64)
		for i := range buckets {
			for _, p := range buckets[i][s] {
				if _, ok := m[p.ext]; !ok {
					m[p.ext] = p.pos
				}
			}
		}
		shardMaps[s] = m
		return nil
	})

	// Phase 3: sort the (unique) first positions once; an ID's dense
	// number is the rank of its first position. Shard maps are
	// rewritten in place from position to dense ID.
	nv := 0
	for _, m := range shardMaps {
		nv += len(m)
	}
	positions := make([]int64, 0, nv)
	for _, m := range shardMaps {
		for _, pos := range m {
			positions = append(positions, pos)
		}
	}
	slices.Sort(positions)
	labels := make([]int64, nv)
	par.Do(shards, func(s int) error {
		for ext, pos := range shardMaps[s] {
			rank, _ := slices.BinarySearch(positions, pos)
			labels[rank] = ext
			shardMaps[s][ext] = int64(rank)
		}
		return nil
	})

	// Phase 4: map the external arc arrays to dense IDs.
	par.Do(len(results), func(i int) error {
		r := &results[i]
		base := offsets[i]
		for j := range r.srcs {
			srcs[base+j] = VertexID(shardMaps[shardOf(r.srcs[j], shards)][r.srcs[j]])
			dsts[base+j] = VertexID(shardMaps[shardOf(r.dsts[j], shards)][r.dsts[j]])
		}
		return nil
	})
	return labels
}
