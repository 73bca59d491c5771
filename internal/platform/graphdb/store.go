// Package graphdb implements the Neo4j analogue: a single-machine,
// non-distributed property-graph database with Neo4j's physical layout —
// a node store, a relationship store with per-node doubly-linked
// relationship chains, and a page cache through which every record
// access flows. The five Graphalytics algorithms run as single-threaded
// traversals over the store's Core-API-style primitives.
//
// Fidelity notes (why this platform lands where Figure 4 puts Neo4j):
//
//   - record-chain traversal has no sequential locality: following a
//     relationship chain hops across the relationship store, so page
//     cache misses track the "poor access locality" choke point (§2.1);
//   - the store must fit in one machine's memory: ETL fails on graphs
//     beyond the budget ("Neo4j is not able to process graphs larger
//     than the memory of a single machine", §3.2);
//   - execution is single-threaded, so it is competitive on small
//     graphs and falls behind the distributed engines as graphs grow.
//
// What is not modelled: STATS and LCC count closed pairs against an
// algo.ClosedPairs bitset, n/8 bytes of real memory per run that the
// memory budget does not see; every store access they make still goes
// through the page cache.
package graphdb

import (
	"slices"

	"graphalytics/internal/graph"
)

const (
	relRecordBytes  = 16
	nodeRecordBytes = 4
	defaultPageSize = 8192
)

// relRecord is one relationship in the relationship store. Chains:
// srcNext links the next relationship of the src node, dstNext the next
// of the dst node (Neo4j's doubly-linked relationship chains).
type relRecord struct {
	src, dst         graph.VertexID
	srcNext, dstNext int32
}

// Store is the record-store database instance.
type Store struct {
	directed bool
	nodes    []int32 // firstRel per node (-1 = none)
	rels     []relRecord
	// weights is the relationship property store (one float64 per
	// relationship), nil for unweighted graphs — Neo4j keeps properties
	// in a separate store file the same way.
	weights []float64
	cache   *pageCache
}

// BuildStore ingests g into record stores (the ETL step).
func BuildStore(g *graph.Graph, pageCachePages int) *Store {
	n := g.NumVertices()
	s := &Store{
		directed: g.Directed(),
		nodes:    make([]int32, n),
		cache:    newPageCache(pageCachePages),
	}
	for i := range s.nodes {
		s.nodes[i] = -1
	}
	// One relationship per logical edge, appended in edge order; chains
	// are built by prepending (Neo4j inserts at the chain head).
	weighted := g.Weighted()
	g.EdgesW(func(u, v graph.VertexID, w float64) {
		id := int32(len(s.rels))
		s.rels = append(s.rels, relRecord{
			src:     u,
			dst:     v,
			srcNext: s.nodes[u],
			dstNext: s.nodes[v],
		})
		if weighted {
			s.weights = append(s.weights, w)
		}
		s.nodes[u] = id
		if v != u {
			s.nodes[v] = id
		}
	})
	return s
}

// Bytes returns the store's record footprint (including the
// relationship property store when the graph is weighted).
func (s *Store) Bytes() int64 { return storeBytes(len(s.nodes), len(s.rels), s.weights != nil) }

// storeBytes is the record footprint of a store of the given shape.
func storeBytes(nodes, rels int, weighted bool) int64 {
	b := int64(nodes)*nodeRecordBytes + int64(rels)*relRecordBytes
	if weighted {
		b += int64(rels) * 8
	}
	return b
}

// NumNodes returns the node count.
func (s *Store) NumNodes() int { return len(s.nodes) }

// NumRels returns the relationship count.
func (s *Store) NumRels() int { return len(s.rels) }

// rel reads relationship record i through the page cache.
func (s *Store) rel(i int32) relRecord {
	s.cache.touch(int64(i) * relRecordBytes)
	return s.rels[i]
}

// firstRel reads node v's chain head through the page cache.
func (s *Store) firstRel(v graph.VertexID) int32 {
	s.cache.touch(int64(len(s.rels))*relRecordBytes + int64(v)*nodeRecordBytes)
	return s.nodes[v]
}

// Expand calls fn for every relationship of v with the other endpoint
// and the direction (outgoing = v is the relationship's src). For
// undirected stores every relationship reports outgoing = true.
// Traversal order is chain order (reverse insertion), like Neo4j.
func (s *Store) Expand(v graph.VertexID, fn func(other graph.VertexID, outgoing bool)) {
	for relID := s.firstRel(v); relID >= 0; {
		r := s.rel(relID)
		switch {
		case r.src == v && r.dst == v: // self loop
			fn(v, true)
			relID = r.srcNext
		case r.src == v:
			fn(r.dst, !s.directed || true)
			relID = r.srcNext
		default:
			fn(r.src, !s.directed)
			relID = r.dstNext
		}
	}
}

// ExpandW is Expand with each relationship's weight property (1 for
// unweighted stores). Reading the property touches the property store
// through the page cache, like Neo4j property chain loads.
func (s *Store) ExpandW(v graph.VertexID, fn func(other graph.VertexID, w float64, outgoing bool)) {
	for relID := s.firstRel(v); relID >= 0; {
		r := s.rel(relID)
		w := s.relWeight(relID)
		switch {
		case r.src == v && r.dst == v: // self loop
			fn(v, w, true)
			relID = r.srcNext
		case r.src == v:
			fn(r.dst, w, !s.directed || true)
			relID = r.srcNext
		default:
			fn(r.src, w, !s.directed)
			relID = r.dstNext
		}
	}
}

// relWeight reads relationship i's weight property through the page
// cache (1 for unweighted stores, with no property-store access).
func (s *Store) relWeight(i int32) float64 {
	if s.weights == nil {
		return 1
	}
	// The property store sits after the node store in the page space.
	s.cache.touch(int64(len(s.rels))*relRecordBytes +
		int64(len(s.nodes))*nodeRecordBytes + int64(i)*8)
	return s.weights[i]
}

// OutNeighbors gathers v's out-neighbors (all neighbors for undirected
// stores), sorted ascending, appended to buf.
func (s *Store) OutNeighbors(v graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	start := len(buf)
	s.Expand(v, func(other graph.VertexID, outgoing bool) {
		if outgoing {
			buf = append(buf, other)
		}
	})
	slices.Sort(buf[start:])
	return buf
}

// InNeighbors gathers v's in-neighbors sorted ascending, appended to buf.
func (s *Store) InNeighbors(v graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	start := len(buf)
	s.Expand(v, func(other graph.VertexID, outgoing bool) {
		if !outgoing || !s.directed {
			buf = append(buf, other)
		}
	})
	slices.Sort(buf[start:])
	return buf
}

// Neighborhood gathers N(v) = out ∪ in, self excluded, sorted and
// deduplicated, appended to buf.
func (s *Store) Neighborhood(v graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	start := len(buf)
	s.Expand(v, func(other graph.VertexID, _ bool) {
		if other != v {
			buf = append(buf, other)
		}
	})
	slices.Sort(buf[start:])
	return buf[:start+len(slices.Compact(buf[start:]))]
}

// CacheStats returns page-cache hits and misses since the cache was
// last emptied: at load, and at the start of every run.
func (s *Store) CacheStats() (hits, misses int64) { return s.cache.hits, s.cache.misses }

// pageCache simulates Neo4j's page cache with a direct-mapped page
// table: each page offset maps to one slot; a differing resident page is
// a miss (and is replaced). The structure keeps real per-access
// bookkeeping cost while staying O(1), and its miss counts expose access
// locality.
type pageCache struct {
	slots  []int64
	hits   int64
	misses int64
}

func newPageCache(pages int) *pageCache {
	if pages <= 0 {
		pages = 8192
	}
	c := &pageCache{slots: make([]int64, pages)}
	c.reset()
	return c
}

// reset empties the cache and zeroes its counts.
func (c *pageCache) reset() {
	for i := range c.slots {
		c.slots[i] = -1
	}
	c.hits, c.misses = 0, 0
}

func (c *pageCache) touch(byteOffset int64) {
	page := byteOffset / defaultPageSize
	slot := page % int64(len(c.slots))
	if c.slots[slot] == page {
		c.hits++
		return
	}
	c.misses++
	c.slots[slot] = page
}
