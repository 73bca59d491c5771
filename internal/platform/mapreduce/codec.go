package mapreduce

import (
	"encoding/binary"
	"math"
	"slices"

	"graphalytics/internal/graph"
)

// The record codec: length-prefixed (key, value) framing for spill
// buffers, plus the primitive encoders the algorithm jobs use for their
// record values. All integers are varints; vertex lists are
// delta-encoded, which is both realistic (Hadoop graph formats
// delta-compress adjacency) and cheap to decode. The encoding is
// canonical (minimal varints), so a job passes a list it does not
// change through as bytes: decoding and encoding it again would give
// the same bytes.

// appendRecord frames (key, value) onto buf.
func appendRecord(buf []byte, key int64, value []byte) []byte {
	buf = binary.AppendVarint(buf, key)
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	return append(buf, value...)
}

// readEntry parses the record framed at buf[off:], where buf is buffer
// b of a sort's buffer list, and returns its sort entry and the offset
// of the next record.
func readEntry(buf []byte, off, b int) (entry, int) {
	key, n := binary.Varint(buf[off:])
	off += n
	l, n := binary.Uvarint(buf[off:])
	off += n
	return entry{key: key, off: off, n: uint32(l), buf: uint32(b)}, off + int(l)
}

// appendUvarint / appendVarint / appendFloat primitives.

func appendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func appendVarint(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

func appendFloat(buf []byte, f float64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	return append(buf, tmp[:]...)
}

func readUvarint(buf []byte) (uint64, []byte) {
	v, n := binary.Uvarint(buf)
	return v, buf[n:]
}

func readVarint(buf []byte) (int64, []byte) {
	v, n := binary.Varint(buf)
	return v, buf[n:]
}

func readFloat(buf []byte) (float64, []byte) {
	v := math.Float64frombits(binary.LittleEndian.Uint64(buf[:8]))
	return v, buf[8:]
}

// appendVertexList delta-encodes a sorted vertex list.
func appendVertexList(buf []byte, vs []graph.VertexID) []byte {
	buf = appendUvarint(buf, uint64(len(vs)))
	prev := uint64(0)
	for _, v := range vs {
		buf = appendUvarint(buf, uint64(v)-prev)
		prev = uint64(v)
	}
	return buf
}

// readVertexList decodes a delta-encoded vertex list into dst[:0], so
// that a caller decoding one list per record reuses one buffer.
func readVertexList(dst []graph.VertexID, buf []byte) ([]graph.VertexID, []byte) {
	n, buf := readUvarint(buf)
	out := slices.Grow(dst[:0], int(n))[:n]
	prev := uint64(0)
	for i := range out {
		var d uint64
		d, buf = readUvarint(buf)
		prev += d
		out[i] = graph.VertexID(prev)
	}
	return out, buf
}

// skipVertexList returns the bytes that follow the vertex list at the
// head of buf, and the list's length.
func skipVertexList(buf []byte) ([]byte, int) {
	n, buf := readUvarint(buf)
	for range n {
		_, buf = readUvarint(buf)
	}
	return buf, int(n)
}

// emptyList and emptyWeightedList encode an empty vertex list and an
// empty list with unit weights.
var emptyList, emptyWeightedList = []byte{0}, []byte{0, 0}

// appendWeightedList delta-encodes a sorted vertex list followed by its
// parallel float64 weights (the weighted-adjacency record of SSSP). A
// nil ws encodes unit weights compactly (a zero flag byte).
func appendWeightedList(buf []byte, vs []graph.VertexID, ws []float64) []byte {
	buf = appendVertexList(buf, vs)
	if ws == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	for _, w := range ws {
		buf = appendFloat(buf, w)
	}
	return buf
}

// readWeightedList decodes a weighted adjacency record into vs[:0] and
// ws[:0]. The weights are nil when the record was written with unit
// weights.
func readWeightedList(vs []graph.VertexID, ws []float64, buf []byte) ([]graph.VertexID, []float64, []byte) {
	vs, buf = readVertexList(vs, buf)
	flag := buf[0]
	buf = buf[1:]
	if flag == 0 {
		return vs, nil, buf
	}
	ws = slices.Grow(ws[:0], len(vs))[:len(vs)]
	for i := range ws {
		ws[i], buf = readFloat(buf)
	}
	return vs, ws, buf
}
