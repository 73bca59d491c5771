package columnstore

import (
	"runtime"
	"sort"
	"time"

	"graphalytics/internal/graph"
	"graphalytics/internal/par"
)

// Profile is the §3.4 measurement set.
type Profile struct {
	// Reachable is the query result: vertices reachable from the source
	// (the source itself is not counted, matching COUNT over spe_to).
	Reachable int64
	// RandomLookups counts outbound-edge lookups (one per expanded
	// vertex) — 2.28e6 in the paper's run.
	RandomLookups int64
	// EdgeEndpointsVisited counts spe_to values scanned — 2.89e8 in the
	// paper's run.
	EdgeEndpointsVisited int64
	// Elapsed is the query wall-clock time.
	Elapsed time.Duration
	// MTEPS = EdgeEndpointsVisited / Elapsed / 1e6 (the paper reports
	// 41.3 MTEPS).
	MTEPS float64
	// CPUUtilization is Σ busy / elapsed × 100 (paper: 1930% of 2400%).
	CPUUtilization float64
	// Cycle shares per operator (paper: 33% hash table, 10% exchange,
	// 57% column access + decompression).
	HashTableShare float64
	ExchangeShare  float64
	ColumnShare    float64
	// Threads is the intra-query parallelism degree.
	Threads int
	// BlockDecodes counts block decompressions.
	BlockDecodes int64
}

// TransitiveCount executes the §3.4 transitive query: count the vertices
// reachable from source. threads <= 0 selects GOMAXPROCS.
//
// Physical plan: the computation state is a partitioned hash table with
// one worker thread per partition. Each iteration, every worker expands
// its partition of the border (random lookups into the compressed
// spe_to column), the exchange operator splits the produced target
// vectors by partition hash, and each worker records the new border in
// its hash-table partition.
func (t *Table) TransitiveCount(source graph.VertexID, threads int) Profile {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	start := time.Now()

	parts := threads
	partOf := func(v graph.VertexID) int {
		return int((uint64(v) * 0x9e3779b97f4a7c15 >> 33) % uint64(parts))
	}

	// Partitioned hash tables (the border state), one per worker.
	tables := make([]*hashSet, parts)
	for p := range tables {
		tables[p] = newHashSet()
	}
	// Current border, partitioned.
	border := make([][]graph.VertexID, parts)
	sp := partOf(source)
	tables[sp].insert(uint32(source))
	border[sp] = append(border[sp], source)

	type workerStats struct {
		column, exchange, hash time.Duration
		lookups, endpoints     int64
		decodes                int64
	}
	stats := make([]workerStats, parts)
	caches := make([]*blockCache, parts)
	for p := range caches {
		caches[p] = newBlockCache()
	}
	sourceReReached := make([]bool, parts)

	var reachable int64
	for {
		empty := true
		for p := range border {
			if len(border[p]) > 0 {
				empty = false
				break
			}
		}
		if empty {
			break
		}

		// Phase 1+2 per worker: expand own border partition (column
		// access), exchange targets into per-partition outboxes.
		outboxes := make([][][]graph.VertexID, parts) // [src][dst] -> vec
		par.Do(parts, func(p int) error {
			outboxes[p] = make([][]graph.VertexID, parts)
			if len(border[p]) == 0 {
				return nil
			}
			st := &stats[p]
			cache := caches[p]
			var vec []graph.VertexID
			// Vectored execution: expand the border in vectors.
			for off := 0; off < len(border[p]); off += BlockSize {
				end := off + BlockSize
				if end > len(border[p]) {
					end = len(border[p])
				}
				t0 := time.Now()
				vec = vec[:0]
				for _, v := range border[p][off:end] {
					lo, hi := t.rowRange(v)
					vec = t.scanRows(lo, hi, vec, cache)
					st.lookups++
				}
				st.endpoints += int64(len(vec))
				st.column += time.Since(t0)

				// Exchange: split the target vector by partition hash.
				t1 := time.Now()
				for _, w := range vec {
					d := partOf(w)
					outboxes[p][d] = append(outboxes[p][d], w)
				}
				st.exchange += time.Since(t1)
			}
			st.decodes = cache.decodes
			return nil
		})

		// Phase 3 per worker: record the new border in the owned hash
		// table partition, then sort it — vectored execution runs over
		// sorted key vectors so the next level's column scans walk blocks
		// sequentially (Virtuoso sorts lookup keys for exactly this).
		next := make([][]graph.VertexID, parts)
		par.Do(parts, func(p int) error {
			st := &stats[p]
			t0 := time.Now()
			tab := tables[p]
			for src := 0; src < parts; src++ {
				for _, w := range outboxes[src][p] {
					if w == source {
						sourceReReached[p] = true
					}
					if tab.insert(uint32(w)) {
						next[p] = append(next[p], w)
					}
				}
			}
			sortVertices(next[p])
			st.hash += time.Since(t0)
			return nil
		})
		border = next
	}

	for p := 0; p < parts; p++ {
		reachable += int64(tables[p].size)
	}
	// COUNT(spe_to) counts distinct reached vertices: the seeded source
	// is subtracted unless some expansion produced it as a target.
	re := false
	for _, f := range sourceReReached {
		re = re || f
	}
	if !re {
		reachable--
	}

	elapsed := time.Since(start)
	pr := Profile{
		Reachable: reachable,
		Elapsed:   elapsed,
		Threads:   threads,
	}
	var busy time.Duration
	for p := range stats {
		pr.RandomLookups += stats[p].lookups
		pr.EdgeEndpointsVisited += stats[p].endpoints
		pr.BlockDecodes += stats[p].decodes
		busy += stats[p].column + stats[p].exchange + stats[p].hash
	}
	if elapsed > 0 {
		pr.MTEPS = float64(pr.EdgeEndpointsVisited) / elapsed.Seconds() / 1e6
		pr.CPUUtilization = float64(busy) / float64(elapsed) * 100
	}
	if busy > 0 {
		var col, exch, hash time.Duration
		for p := range stats {
			col += stats[p].column
			exch += stats[p].exchange
			hash += stats[p].hash
		}
		pr.ColumnShare = float64(col) / float64(busy)
		pr.ExchangeShare = float64(exch) / float64(busy)
		pr.HashTableShare = float64(hash) / float64(busy)
	}
	return pr
}

func sortVertices(vs []graph.VertexID) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}

// hashSet is an open-addressing uint32 set — the "hash table containing
// the border". Probing cost is the 33% the paper attributes to it.
type hashSet struct {
	slots []uint32 // value+1; 0 = empty
	size  int
}

func newHashSet() *hashSet {
	return &hashSet{slots: make([]uint32, 1024)}
}

// insert adds v and reports whether it was absent.
func (h *hashSet) insert(v uint32) bool {
	if h.size*4 >= len(h.slots)*3 {
		h.grow()
	}
	mask := uint32(len(h.slots) - 1)
	slot := (v * 0x9e3779b9) & mask
	for {
		cur := h.slots[slot]
		if cur == 0 {
			h.slots[slot] = v + 1
			h.size++
			return true
		}
		if cur == v+1 {
			return false
		}
		slot = (slot + 1) & mask
	}
}

func (h *hashSet) grow() {
	old := h.slots
	h.slots = make([]uint32, len(old)*2)
	h.size = 0
	for _, cur := range old {
		if cur != 0 {
			h.insert(cur - 1)
		}
	}
}
