package graphdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// ETL blob format for the artifact cache. The graph database is the one
// platform whose ETL does real work (building record stores with
// per-node relationship chains), so its output is worth persisting:
//
//	magic    "GDBE" (4 bytes)
//	version  u8 (1)
//	flags    u8 (bit0 = directed, bit1 = weighted)
//	numNodes u64 LE
//	numRels  u64 LE
//	nodes    numNodes × i32 LE (firstRel per node)
//	rels     numRels × (src u32, dst u32, srcNext i32, dstNext i32) LE
//	weights  numRels × f64 LE (weighted stores only)
//
// The page cache is deliberately NOT serialized: it is runtime state,
// and a restored store starts cold exactly like a freshly built one, so
// cached loads keep the same hit/miss behaviour as live ETL.

const (
	etlMagic   = "GDBE"
	etlVersion = 1

	etlFlagDirected = 1 << 0
	etlFlagWeighted = 1 << 1
)

// errETL reports a malformed or mismatched ETL blob.
var errETL = errors.New("graphdb: bad ETL blob")

// ETLVersion implements platform.CachedLoader.
func (p *Platform) ETLVersion() string { return "graphdb-etl-v1" }

// WriteETL implements platform.CachedLoader: it serializes the record
// stores of a graph loaded by this platform.
func (p *Platform) WriteETL(l platform.Loaded, w io.Writer) error {
	ld, ok := l.(*loaded)
	if !ok {
		return fmt.Errorf("graphdb: WriteETL: not a graphdb-loaded graph (%T)", l)
	}
	s := ld.store
	bw := bufio.NewWriterSize(w, 1<<20)
	var flags byte
	if s.directed {
		flags |= etlFlagDirected
	}
	if s.weights != nil {
		flags |= etlFlagWeighted
	}
	header := make([]byte, 0, 22)
	header = append(header, etlMagic...)
	header = append(header, etlVersion, flags)
	header = binary.LittleEndian.AppendUint64(header, uint64(len(s.nodes)))
	header = binary.LittleEndian.AppendUint64(header, uint64(len(s.rels)))
	if _, err := bw.Write(header); err != nil {
		return err
	}
	var buf [16]byte
	for _, first := range s.nodes {
		binary.LittleEndian.PutUint32(buf[:4], uint32(first))
		if _, err := bw.Write(buf[:4]); err != nil {
			return err
		}
	}
	for _, r := range s.rels {
		binary.LittleEndian.PutUint32(buf[0:], uint32(r.src))
		binary.LittleEndian.PutUint32(buf[4:], uint32(r.dst))
		binary.LittleEndian.PutUint32(buf[8:], uint32(r.srcNext))
		binary.LittleEndian.PutUint32(buf[12:], uint32(r.dstNext))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	for _, wt := range s.weights {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(wt))
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadETL implements platform.CachedLoader: it reconstructs the record
// stores from a WriteETL blob and applies the same memory budget as
// LoadGraph (a cached load still has to fit). The blob is checked
// against g before anything is allocated — its shape must be the one
// BuildStore gives g — and every record field is range-checked, so a
// corrupt blob is an error here rather than a panic or a hang in a
// traversal.
func (p *Platform) ReadETL(g *graph.Graph, r io.Reader) (platform.Loaded, error) {
	header := make([]byte, 22)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: header: %w", errETL, err)
	}
	if string(header[:4]) != etlMagic {
		return nil, fmt.Errorf("%w: bad magic", errETL)
	}
	if header[4] != etlVersion {
		return nil, fmt.Errorf("%w: version %d", errETL, header[4])
	}
	flags := header[5]
	numNodes := binary.LittleEndian.Uint64(header[6:14])
	numRels := binary.LittleEndian.Uint64(header[14:22])
	if numNodes != uint64(g.NumVertices()) {
		return nil, fmt.Errorf("%w: %d nodes for a %d-vertex graph", errETL, numNodes, g.NumVertices())
	}
	if want := relCount(g); numRels != want {
		return nil, fmt.Errorf("%w: %d relationships for a graph with %d", errETL, numRels, want)
	}
	// A store without relationships has no property store to flag.
	directed, weighted := flags&etlFlagDirected != 0, flags&etlFlagWeighted != 0
	if directed != g.Directed() || (numRels > 0 && weighted != g.Weighted()) {
		return nil, fmt.Errorf("%w: flags %#x do not match the graph (directed %t, weighted %t)",
			errETL, flags, g.Directed(), g.Weighted())
	}
	if err := platform.NewMemoryTracker(p.Name(), p.opts.MemoryBudget).Alloc(storeBytes(int(numNodes), int(numRels), weighted)); err != nil {
		return nil, err
	}

	br := bufio.NewReaderSize(r, 1<<20)
	s := &Store{
		directed: directed,
		nodes:    make([]int32, numNodes),
		rels:     make([]relRecord, numRels),
		cache:    newPageCache(p.opts.PageCachePages),
	}
	// Chains are built by prepending, so every chain pointer names an
	// earlier relationship: a head is below numRels, a next pointer below
	// its own record. That bound also makes every chain walk terminate.
	var buf [16]byte
	for i := range s.nodes {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("%w: node store: %w", errETL, err)
		}
		head := int32(binary.LittleEndian.Uint32(buf[:4]))
		if head < -1 || int64(head) >= int64(numRels) {
			return nil, fmt.Errorf("%w: node %d: chain head %d out of range", errETL, i, head)
		}
		s.nodes[i] = head
	}
	for i := range s.rels {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("%w: relationship store: %w", errETL, err)
		}
		rel := relRecord{
			src:     graph.VertexID(binary.LittleEndian.Uint32(buf[0:])),
			dst:     graph.VertexID(binary.LittleEndian.Uint32(buf[4:])),
			srcNext: int32(binary.LittleEndian.Uint32(buf[8:])),
			dstNext: int32(binary.LittleEndian.Uint32(buf[12:])),
		}
		if uint64(rel.src) >= numNodes || uint64(rel.dst) >= numNodes {
			return nil, fmt.Errorf("%w: relationship %d: endpoint (%d,%d) out of range", errETL, i, rel.src, rel.dst)
		}
		if rel.srcNext < -1 || rel.dstNext < -1 || int(rel.srcNext) >= i || int(rel.dstNext) >= i {
			return nil, fmt.Errorf("%w: relationship %d: chain pointers (%d,%d) out of range", errETL, i, rel.srcNext, rel.dstNext)
		}
		s.rels[i] = rel
	}
	if weighted {
		s.weights = make([]float64, numRels)
		for i := range s.weights {
			if _, err := io.ReadFull(br, buf[:8]); err != nil {
				return nil, fmt.Errorf("%w: property store: %w", errETL, err)
			}
			s.weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:8]))
		}
	}
	return p.newLoaded(g, s), nil
}

// relCount is the number of relationships BuildStore creates for g, one
// per EdgesW callback: every arc of a directed graph, and every arc u→v
// with u <= v of an undirected one (adjacency lists are sorted, so those
// are the tail of u's list).
func relCount(g *graph.Graph) uint64 {
	if g.Directed() {
		return uint64(g.NumArcs())
	}
	var c uint64
	for u := 0; u < g.NumVertices(); u++ {
		adj := g.OutNeighbors(graph.VertexID(u))
		lo, _ := slices.BinarySearch(adj, graph.VertexID(u))
		c += uint64(len(adj) - lo)
	}
	return c
}
