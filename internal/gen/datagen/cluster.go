package datagen

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphalytics/internal/par"
)

// ClusterSim models the two deployment targets of the Figure 3
// scalability experiment:
//
//   - the "Single" machine: one node with many cores and one disk;
//   - the "Cluster": several nodes, each with fewer cores but its own
//     disk, plus a per-job startup overhead (Hadoop job launch).
//
// Generation CPU work is real (the datagen passes run for the node's
// share of the blocks); disk I/O is simulated with a token-bucket
// bandwidth model per node, because this environment has no 2 TB HDDs to
// saturate. The crossover the paper reports — single node wins while
// generation is CPU-bound, the cluster wins once it becomes I/O-bound —
// is produced by exactly the two forces the paper names: aggregate disk
// bandwidth versus startup overhead and per-node CPU.
type ClusterSim struct {
	// Nodes is the number of machines (1 = the single-machine target).
	Nodes int
	// CoresPerNode bounds generation workers per node.
	CoresPerNode int
	// DiskMBps is the simulated sustained write bandwidth per node disk.
	DiskMBps float64
	// StartupOverhead is paid once per node (job scheduling, JVM spin-up
	// in the original; a fixed cost here).
	StartupOverhead time.Duration
	// BytesPerEdge is the on-disk edge record size (default 16: two
	// decimal IDs plus separators, roughly the TSV the original writes).
	BytesPerEdge int
}

// SimResult reports one scalability measurement (one point of Figure 3).
type SimResult struct {
	Persons   int
	Edges     int64
	Bytes     int64
	Elapsed   time.Duration
	Nodes     int
	IOLimited bool // true if the disk model added wait time
}

// Run generates cfg's graph under the simulated deployment and returns
// timing. The person range is partitioned across nodes; each node runs
// the real generator for its share and pushes the edges through its
// disk-bandwidth model.
func (s ClusterSim) Run(cfg Config) (SimResult, error) {
	if s.Nodes <= 0 {
		s.Nodes = 1
	}
	if s.CoresPerNode <= 0 {
		s.CoresPerNode = 1
	}
	if s.BytesPerEdge <= 0 {
		s.BytesPerEdge = 16
	}
	c := cfg.withDefaults()
	if c.Persons <= 1 {
		return SimResult{}, fmt.Errorf("datagen: need at least 2 persons, got %d", c.Persons)
	}

	start := time.Now()
	var totalEdges, totalBytes atomic.Int64
	var ioLimited atomic.Bool
	err := par.Ranges(c.Persons, s.Nodes, func(node, lo, hi int) error {
		if hi-lo < 2 {
			return nil
		}
		// Per-node job startup.
		if s.StartupOverhead > 0 {
			time.Sleep(s.StartupOverhead)
		}
		nodeCfg := c
		nodeCfg.Persons = hi - lo
		// Offset the seed per node so person attributes differ per
		// shard, mirroring how the Hadoop Datagen assigns disjoint
		// person ranges to reducers.
		nodeCfg.Seed = c.Seed + uint64(node)*0x9e37
		nodeCfg.Workers = s.CoresPerNode

		disk := newDiskModel(s.DiskMBps)
		var edges, bytes int64
		var mu sync.Mutex
		if _, err := GenerateEdges(nodeCfg, func(u, v uint32) {
			mu.Lock()
			edges++
			bytes += int64(s.BytesPerEdge)
			mu.Unlock()
			disk.write(int64(s.BytesPerEdge))
		}); err != nil {
			return err
		}
		if disk.waited() {
			ioLimited.Store(true)
		}
		disk.drain()
		totalEdges.Add(edges)
		totalBytes.Add(bytes)
		return nil
	})
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		Persons:   c.Persons,
		Edges:     totalEdges.Load(),
		Bytes:     totalBytes.Load(),
		Elapsed:   time.Since(start),
		Nodes:     s.Nodes,
		IOLimited: ioLimited.Load(),
	}, nil
}

// diskModel is a token-bucket write-bandwidth limiter. Writes accumulate
// a byte debt; whenever the debt implies more time than has elapsed, the
// writer sleeps the difference. Zero bandwidth disables the model.
type diskModel struct {
	mbps    float64
	start   time.Time
	mu      sync.Mutex
	written int64
	slept   bool
}

func newDiskModel(mbps float64) *diskModel {
	return &diskModel{mbps: mbps, start: time.Now()}
}

func (d *diskModel) write(n int64) {
	if d.mbps <= 0 {
		return
	}
	d.mu.Lock()
	d.written += n
	need := time.Duration(float64(d.written) / (d.mbps * 1e6) * float64(time.Second))
	elapsed := time.Since(d.start)
	d.mu.Unlock()
	if need > elapsed {
		// Sleep in coarse steps to avoid timer spam on tiny writes.
		if need-elapsed > time.Millisecond {
			d.slept = true
			time.Sleep(need - elapsed)
		}
	}
}

// drain blocks until all written bytes fit under the bandwidth budget.
func (d *diskModel) drain() {
	if d.mbps <= 0 {
		return
	}
	d.mu.Lock()
	need := time.Duration(float64(d.written) / (d.mbps * 1e6) * float64(time.Second))
	elapsed := time.Since(d.start)
	d.mu.Unlock()
	if need > elapsed {
		d.slept = true
		time.Sleep(need - elapsed)
	}
}

func (d *diskModel) waited() bool { return d.slept }
