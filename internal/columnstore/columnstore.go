// Package columnstore implements the OpenLink Virtuoso analogue used by
// the §3.4 experiment ("BFS on a DBMS"): a column-wise compressed edge
// table (sp_edge with columns spe_from, spe_to), vectored execution, and
// a transitive-traversal operator with intra-query parallelism and
// partitioned aggregation.
//
// The §3.4 physical plan is reproduced exactly:
//
//   - the state of the computation is a partitioned hash table, one
//     thread reading/writing each partition;
//   - an exchange operator sits between the lookup of outbound edges and
//     the recording of the new border, splitting target vectors into
//     per-partition vectors by hash;
//   - column access decompresses blocks of the spe_to column;
//   - the profiler reports the same quantities the paper does: random
//     lookups, edge endpoints visited, MTEPS, CPU utilization, and the
//     share of cycles spent in the hash table / exchange / column
//     access.
package columnstore

import (
	"encoding/binary"
	"fmt"

	"graphalytics/internal/graph"
)

// BlockSize is the vectored-execution block width (values per
// compressed block and per processing vector).
const BlockSize = 1024

// Options configures table construction.
type Options struct {
	// Compress enables delta+varint compression of the spe_to column
	// (on by default via NewTable; the ablation turns it off).
	Compress bool
}

// Table is the sp_edge table: edges sorted by (spe_from, spe_to), the
// spe_to column stored column-wise in compressed blocks, plus a sparse
// row index for random access by spe_from.
type Table struct {
	n        int
	rows     int64
	rowStart []int64 // per spe_from value: first row index

	compressed bool
	blocks     [][]byte // compressed blocks of BlockSize spe_to values
	raw        []graph.VertexID

	name string
}

// NewTable builds the edge table from g with compression enabled.
func NewTable(g *graph.Graph) *Table { return NewTableOpts(g, Options{Compress: true}) }

// NewTableOpts builds the edge table with explicit options.
func NewTableOpts(g *graph.Graph, opts Options) *Table {
	n := g.NumVertices()
	t := &Table{n: n, compressed: opts.Compress, name: g.Name()}
	t.rowStart = make([]int64, n+1)
	var tos []graph.VertexID
	for v := 0; v < n; v++ {
		t.rowStart[v] = int64(len(tos))
		tos = append(tos, g.OutNeighbors(graph.VertexID(v))...)
	}
	t.rowStart[n] = int64(len(tos))
	t.rows = int64(len(tos))

	if !opts.Compress {
		t.raw = tos
		return t
	}
	for off := 0; off < len(tos); off += BlockSize {
		end := off + BlockSize
		if end > len(tos) {
			end = len(tos)
		}
		t.blocks = append(t.blocks, compressBlock(tos[off:end]))
	}
	return t
}

// NumRows returns the edge-table row count.
func (t *Table) NumRows() int64 { return t.rows }

// NumVertices returns the vertex domain size.
func (t *Table) NumVertices() int { return t.n }

// ColumnBytes returns the stored size of the spe_to column (the
// compression ablation's memory measure).
func (t *Table) ColumnBytes() int64 {
	if !t.compressed {
		return int64(len(t.raw)) * 4
	}
	var b int64
	for _, blk := range t.blocks {
		b += int64(len(blk))
	}
	return b
}

// compressBlock encodes a block: first value raw uvarint, then zigzag
// varint deltas (spe_to is locally sorted per spe_from group, so deltas
// are small and mostly positive).
func compressBlock(vals []graph.VertexID) []byte {
	buf := make([]byte, 0, len(vals))
	prev := int64(0)
	for i, v := range vals {
		if i == 0 {
			buf = binary.AppendUvarint(buf, uint64(v))
		} else {
			buf = binary.AppendVarint(buf, int64(v)-prev)
		}
		prev = int64(v)
	}
	return buf
}

// decompressBlock decodes block b into out (len BlockSize capacity).
func decompressBlock(blk []byte, out []graph.VertexID) []graph.VertexID {
	first, n := binary.Uvarint(blk)
	blk = blk[n:]
	prev := int64(first)
	out = append(out, graph.VertexID(first))
	for len(blk) > 0 {
		d, n := binary.Varint(blk)
		blk = blk[n:]
		prev += d
		out = append(out, graph.VertexID(prev))
	}
	return out
}

// rowRange returns the [lo, hi) row range of spe_from = v.
func (t *Table) rowRange(v graph.VertexID) (int64, int64) {
	return t.rowStart[v], t.rowStart[v+1]
}

// scanRows appends the spe_to values of rows [lo, hi) to out,
// decompressing the covering blocks through cache (a reusable block
// decode buffer keyed by block id).
func (t *Table) scanRows(lo, hi int64, out []graph.VertexID, cache *blockCache) []graph.VertexID {
	if !t.compressed {
		return append(out, t.raw[lo:hi]...)
	}
	for row := lo; row < hi; {
		blk := int(row / BlockSize)
		vals := cache.get(t, blk)
		start := row % BlockSize
		end := int64(len(vals))
		if blkEnd := (int64(blk) + 1) * BlockSize; hi < blkEnd {
			end = hi - int64(blk)*BlockSize
		}
		out = append(out, vals[start:end]...)
		row = (int64(blk) + 1) * BlockSize
		if row > hi {
			row = hi
		}
	}
	return out
}

// blockCache memoizes the most recently decompressed block per worker
// (vectored execution re-reads neighbors in the same block often).
type blockCache struct {
	id      int
	vals    []graph.VertexID
	decodes int64
}

func newBlockCache() *blockCache { return &blockCache{id: -1} }

func (c *blockCache) get(t *Table, blk int) []graph.VertexID {
	if c.id == blk {
		return c.vals
	}
	c.vals = decompressBlock(t.blocks[blk], c.vals[:0])
	c.id = blk
	c.decodes++
	return c.vals
}

// SQL returns the §3.4 query text this table's TransitiveCount
// implements, for documentation and reports.
func (t *Table) SQL(source graph.VertexID) string {
	return fmt.Sprintf(`select count (*) from (select spe_to from
  (select transitive t_in (1) t_out (2) t_distinct
   spe_from, spe_to from sp_edge) derived_table_1
  where spe_from = %d) derived_table_2;`, source)
}
