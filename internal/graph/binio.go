package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"graphalytics/internal/par"
)

// Binary graph format ("GALB"): a compact CSR serialization that loads
// an order of magnitude faster than the text .v/.e pair, used by the
// dataset cache for large preconfigured graphs.
//
// Layout (all integers varint unless noted):
//
//	magic   "GALB" (4 bytes)
//	version u8 (=1)
//	flags   u8 (bit0 directed, bit1 has-labels, bit2 has-reverse,
//	        bit3 has-weights)
//	name    uvarint length + bytes
//	n       uvarint vertex count
//	arcs    uvarint arc count
//	degrees n × uvarint (out-degree per vertex)
//	edges   per vertex: sorted adjacency delta-encoded (first value
//	        absolute, then gaps)
//	[weights arcs × float64 LE, in edge order (if bit3)]
//	[labels n × varint (if bit1)]
//
// The reverse adjacency (and its weights) is rebuilt on load when bit2
// is set (it is derivable, so it is not stored).

const binMagic = "GALB"

// ErrBadFormat reports a malformed binary graph file.
var ErrBadFormat = errors.New("graph: bad binary format")

// maxPrealloc caps the elements the reader allocates on the word of a
// header count alone when the input's length is unknown. Beyond it,
// arrays grow with the data actually decoded, so a corrupt header cannot
// demand more memory than the input supplies.
const maxPrealloc = 1 << 16

// growFor returns s with room for at least one more element, doubling
// its capacity but never past want elements in total.
func growFor[T any](s []T, want uint64) []T {
	more := min(max(uint64(len(s)), 1), want-uint64(len(s)))
	return slices.Grow(s, int(more))
}

// truncated wraps a short read inside a binary graph as ErrBadFormat.
func truncated(section string, err error) error {
	return fmt.Errorf("%w: truncated %s: %v", ErrBadFormat, section, err)
}

// WriteBinary serializes g to w in the binary format.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	flags := byte(0)
	if g.directed {
		flags |= 1
	}
	if g.labels != nil {
		flags |= 2
	}
	if g.directed && g.inIndex != nil {
		flags |= 4
	}
	if g.outWeights != nil {
		flags |= 8
	}
	if err := bw.WriteByte(1); err != nil {
		return err
	}
	if err := bw.WriteByte(flags); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(g.name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(g.name); err != nil {
		return err
	}
	if err := putUvarint(uint64(g.n)); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(g.outEdges))); err != nil {
		return err
	}
	for v := 0; v < g.n; v++ {
		if err := putUvarint(uint64(g.OutDegree(VertexID(v)))); err != nil {
			return err
		}
	}
	for v := 0; v < g.n; v++ {
		prev := uint64(0)
		for i, u := range g.OutNeighbors(VertexID(v)) {
			if i == 0 {
				if err := putUvarint(uint64(u)); err != nil {
					return err
				}
			} else if err := putUvarint(uint64(u) - prev); err != nil {
				return err
			}
			prev = uint64(u)
		}
	}
	if g.outWeights != nil {
		var wbuf [8]byte
		for _, wt := range g.outWeights {
			binary.LittleEndian.PutUint64(wbuf[:], math.Float64bits(wt))
			if _, err := bw.Write(wbuf[:]); err != nil {
				return err
			}
		}
	}
	if g.labels != nil {
		for _, l := range g.labels {
			if err := putVarint(l); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph from r, with the reverse-adjacency
// rebuild parallelized over all cores (see ReadBinaryWorkers).
func ReadBinary(r io.Reader) (*Graph, error) { return ReadBinaryWorkers(r, 0) }

// ReadBinaryWorkers is ReadBinary with the weight-section decode and
// the reverse-adjacency rebuild fanned out over workers (<= 0 uses
// GOMAXPROCS). The varint edge stream itself is inherently sequential
// — each delta depends on its predecessor — so it always streams. The
// result is byte-identical for any worker count.
func ReadBinaryWorkers(r io.Reader, workers int) (*Graph, error) {
	workers = buildWorkers(workers)
	// Every degree and edge takes at least one byte, so an input that
	// knows its length (a bytes.Reader) bounds the counts exactly.
	prealloc := uint64(maxPrealloc)
	if l, ok := r.(interface{ Len() int }); ok {
		prealloc = max(prealloc, uint64(l.Len()))
	}
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, truncated("header", err)
	}
	if string(magic) != binMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, truncated("header", err)
	}
	if version != 1 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, truncated("header", err)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, truncated("header", err)
	}
	if nameLen > 1<<20 {
		return nil, fmt.Errorf("%w: absurd name length %d", ErrBadFormat, nameLen)
	}
	nameBytes := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBytes); err != nil {
		return nil, truncated("name", err)
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, truncated("header", err)
	}
	arcs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, truncated("header", err)
	}
	if n64 > 1<<32 || arcs > 1<<40 {
		return nil, fmt.Errorf("%w: implausible sizes n=%d arcs=%d", ErrBadFormat, n64, arcs)
	}
	if n64 == 0 {
		// No writer produces one: the Builder and both text loaders
		// reject the empty graph too.
		return nil, fmt.Errorf("%w: %w", ErrBadFormat, ErrEmptyGraph)
	}
	n := int(n64)

	g := &Graph{
		name:     string(nameBytes),
		directed: flags&1 != 0,
		n:        n,
	}
	// n and arcs are only claims until their sections have been read:
	// the index and edge arrays grow with what was decoded, and every
	// later section is sized by counts that have been read by then.
	index := make([]int64, 1, min(n64, prealloc)+1)
	sum := uint64(0)
	for v := 0; v < n; v++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, truncated("degrees", err)
		}
		if d > arcs-sum {
			return nil, fmt.Errorf("%w: degree sum exceeds arc count %d", ErrBadFormat, arcs)
		}
		sum += d
		if len(index) == cap(index) {
			index = growFor(index, n64+1)
		}
		index = append(index, int64(sum))
	}
	if sum != arcs {
		return nil, fmt.Errorf("%w: degree sum %d != arc count %d", ErrBadFormat, sum, arcs)
	}
	g.outIndex = index
	edges := make([]VertexID, 0, min(arcs, prealloc))
	for v := 0; v < n; v++ {
		prev := uint64(0)
		for i := index[v]; i < index[v+1]; i++ {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, truncated("edges", err)
			}
			if d >= uint64(n) {
				return nil, fmt.Errorf("%w: edge target delta %d out of range", ErrBadFormat, d)
			}
			if i == index[v] {
				prev = d
			} else {
				prev += d
			}
			if prev >= uint64(n) {
				return nil, fmt.Errorf("%w: edge target %d out of range", ErrBadFormat, prev)
			}
			if len(edges) == cap(edges) {
				edges = growFor(edges, arcs)
			}
			edges = append(edges, VertexID(prev))
		}
	}
	g.outEdges = edges
	if flags&8 != 0 {
		// The weight section is a flat float64 block: stream it in
		// fixed-size reads and convert each block off the wire.
		g.outWeights = make([]float64, arcs)
		const blk = 1 << 16 // floats per read
		var buf []byte
		for off := 0; off < len(g.outWeights); off += blk {
			end := min(off+blk, len(g.outWeights))
			need := (end - off) * 8
			if cap(buf) < need {
				buf = make([]byte, need)
			}
			if _, err := io.ReadFull(br, buf[:need]); err != nil {
				return nil, truncated("weights", err)
			}
			for i := off; i < end; i++ {
				g.outWeights[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[(i-off)*8:]))
			}
		}
	}
	if flags&2 != 0 {
		g.labels = make([]int64, n)
		for v := 0; v < n; v++ {
			l, err := binary.ReadVarint(br)
			if err != nil {
				return nil, truncated("labels", err)
			}
			g.labels[v] = l
		}
	}
	if !g.directed {
		g.inIndex, g.inEdges = g.outIndex, g.outEdges
		g.inWeights = g.outWeights
	} else if flags&4 != 0 {
		// Rebuild the reverse adjacency (with weights when present):
		// materialize the per-arc source array straight from the CSR
		// index (in parallel) and counting-sort by target. outEdges and
		// outWeights are read-only inputs here, so they feed the build
		// without a copy.
		srcs := make([]VertexID, arcs)
		fillSources(g.outIndex, srcs, n, workers)
		g.inIndex, g.inEdges, g.inWeights = buildCSR(n, g.outEdges, srcs, g.outWeights, false, csrWorkers(workers, len(srcs)))
	}
	return g, nil
}

// fillSources expands the CSR index into a per-arc source array.
func fillSources(index []int64, srcs []VertexID, n, workers int) {
	ranges := balancedVertexRanges(index, n, workers)
	par.Do(len(ranges), func(r int) error {
		for v := ranges[r][0]; v < ranges[r][1]; v++ {
			for i := index[v]; i < index[v+1]; i++ {
				srcs[i] = VertexID(v)
			}
		}
		return nil
	})
}
