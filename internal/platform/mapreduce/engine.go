// Package mapreduce implements the Hadoop MapReduce analogue: a real
// map / sort-shuffle / reduce engine on which the five Graphalytics
// algorithms run as chains of jobs that carry the whole graph through
// every iteration.
//
// Fidelity notes (why this platform lands where Figure 4 puts Hadoop —
// one to two orders of magnitude slower than the BSP engine, but
// unkillable):
//
//   - every job physically serializes all intermediate records to byte
//     buffers, sorts each reduce partition, and deserializes on the
//     other side — iteration state (including adjacency lists) pays the
//     full materialization cost every round, exactly like HDFS-backed
//     Hadoop iterations;
//   - every job pays a configurable scheduling overhead (YARN container
//     launch in the original);
//   - there is no memory budget: state streams through buffers, so the
//     engine processes any graph if given enough time ("MapReduce does
//     not need to keep graph data in memory during processing and thus
//     does not crash", §3.3).
//
// What is not modelled is harness overhead. A reduce partition is
// sorted by key only, as pointer-free entries that index the spill
// buffers in place, with a stable LSD radix pass: the Hadoop shuffle
// order, which leaves the values of a key unordered. Each reducer reads
// the mappers' buffers in mapper order and each mapper takes a
// contiguous split of the input, so a key's values arrive in emission
// order (input-record order, then the order of the emits within Map)
// at every worker count. The job output alone is sorted by key, then by
// value bytes, so that a chain's next input is the same however the
// keys were partitioned. Spill buffers, sort entries and the reducer's
// values slice belong to the Cluster and are reused by the next job,
// the way a Hadoop task reuses its buffers and value objects; a loaded
// graph keeps its idle Clusters, so the next run on it reuses them too.
// Each job charges the bytes it holds (input records, spill, sort
// entries, output) to the run's memory tracker, so a cell's peak memory
// is its largest job, with no budget. STATS and LCC reducers count
// closed pairs against one algo.ClosedPairs bitset per slot (indexed by
// TaskCtx.Slot), n/8 bytes of real memory each that no counter models.
package mapreduce

import (
	"context"
	"runtime"
	"slices"
	"time"
	"unsafe"

	"graphalytics/internal/par"
	"graphalytics/internal/platform"
	"graphalytics/internal/telemetry"
)

// Record is one key/value pair. Values are opaque bytes: jobs encode and
// decode them with the codec in this package, paying real serialization
// cost.
type Record struct {
	Key   int64
	Value []byte
}

// Emit receives output records from mappers and reducers.
type Emit func(key int64, value []byte)

// TaskCtx gives one map or reduce task access to job counters. Every
// task owns its TaskCtx, so Inc takes no lock; the engine merges the
// task counters in task order after each phase.
type TaskCtx struct {
	counters map[string]int64
	slot     int
}

// Slot returns the index of the map/reduce slot running the task, in
// [0, Workers): tasks index per-slot scratch with it.
func (t *TaskCtx) Slot() int { return t.slot }

// Inc adds delta to a named job counter (Hadoop counter analogue).
func (t *TaskCtx) Inc(name string, delta int64) {
	t.counters[name] += delta
}

// Job is one MapReduce job.
type Job struct {
	// Name appears in traces.
	Name string
	// Map is invoked once per input record.
	Map func(tc *TaskCtx, r Record, emit Emit)
	// Reduce is invoked once per distinct key with all values for it,
	// in emission order: the order of the input records that emitted
	// them, then the order of the emits within one Map call. The order
	// is the same at every worker count. values and the bytes it
	// points at are valid only during the call: the engine reuses the
	// slice for the next key and the spill buffers for the next job, as
	// Hadoop reuses its value objects. Emit copies what it is given;
	// anything else Reduce keeps must be decoded or copied.
	Reduce func(tc *TaskCtx, key int64, values [][]byte, emit Emit)
}

// JobResult carries a job's output and counters.
type JobResult struct {
	Output   []Record
	Counters map[string]int64
}

// Cluster executes jobs, one at a time. It keeps each slot's spill
// buffers and sort scratch from one job to the next, so a job chain on
// one Cluster allocates them once.
type Cluster struct {
	// Workers is the number of map/reduce slots (default GOMAXPROCS).
	Workers int
	// RoundOverhead is paid once per job (scheduling, container launch).
	RoundOverhead time.Duration
	// Counters accumulates engine metrics across jobs of one algorithm.
	Counters *platform.Counters
	// mem, when not nil, is charged the bytes each job holds.
	mem *platform.MemoryTracker

	slots []slot
	// Job output sort: every reducer's output buffer and the entries
	// that index them.
	outBufs     [][]byte
	outES, outT []entry
}

// slot is one map/reduce worker's state. As a mapper it fills one spill
// buffer per reducer; as a reducer it sorts and reduces the buffers the
// mappers filled for it and writes a fresh output buffer.
type slot struct {
	tc     TaskCtx
	spill  [][]byte // [reducer] serialized map output, reused across jobs
	counts []int    // [reducer] records in spill
	bufs   [][]byte // [mapper] the spill buffers this reducer reads
	es, t  []entry  // sort entries and radix scratch
	values [][]byte // one key group, reused across groups
	busy   time.Duration

	out     []byte // reducer output, the next job's input
	outRecs int
	outHint int // next output's capacity: a chain's jobs write outputs of like size

	input, spilled, network, shuffled int64 // bytes, bytes, bytes, records
}

// workers returns the number of slots a job runs on.
func (c *Cluster) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// Run executes one job over input.
func (c *Cluster) Run(ctx context.Context, input []Record, job Job) (*JobResult, error) {
	if err := platform.CheckContextPhase(ctx, "mapreduce/submit"); err != nil {
		return nil, err
	}
	workers := c.workers()
	if c.Counters == nil {
		c.Counters = &platform.Counters{}
	}
	if c.RoundOverhead > 0 {
		time.Sleep(c.RoundOverhead)
	}
	c.Counters.Supersteps++ // jobs
	sp := telemetry.StartSpan("mapreduce", "job:"+job.Name)
	sp.SetAttr("workers", workers)
	sp.SetAttr("records_in", len(input))
	defer sp.End()

	c.reset(workers)
	counters := map[string]int64{}
	err := c.mapPhase(ctx, input, job)
	c.collect(counters)
	if err == nil {
		err = par.Do(workers, func(r int) error { return c.reduce(ctx, r, job) })
		c.collect(counters)
	}
	var output []Record
	if err == nil {
		output, err = c.output(ctx)
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	for i := range c.slots {
		s := &c.slots[i]
		c.Counters.Messages += s.shuffled
		c.Counters.MessageBytes += s.spilled
		c.Counters.SpilledBytes += s.spilled
		c.Counters.NetworkBytes += s.network
	}
	if c.mem != nil {
		// A job's data only grows until it returns, so its peak is
		// what it holds now. The tracker has no budget (MapReduce
		// streams, §3.3), so Alloc cannot fail.
		live := c.liveBytes(len(output))
		_ = c.mem.Alloc(live)
		c.mem.Free(live)
	}
	sp.SetAttr("records_out", len(output))
	return &JobResult{Output: output, Counters: counters}, nil
}

// reset readies the slots for a job: it empties the spill buffers of the
// previous job, whose reducers have copied out everything they emitted.
func (c *Cluster) reset(workers int) {
	if len(c.slots) != workers {
		c.slots = make([]slot, workers)
		for i := range c.slots {
			c.slots[i] = slot{
				tc:     TaskCtx{counters: map[string]int64{}, slot: i},
				spill:  make([][]byte, workers),
				counts: make([]int, workers),
				bufs:   make([][]byte, workers),
			}
		}
		c.outBufs = make([][]byte, workers)
	}
	for i := range c.slots {
		s := &c.slots[i]
		for r := range s.spill {
			s.spill[r] = s.spill[r][:0]
		}
		clear(s.counts)
		clear(s.tc.counters)
		s.input, s.spilled, s.network, s.shuffled = 0, 0, 0, 0
	}
}

// The in-memory sizes of a sort entry and of a Record header.
const entrySize, recordSize = int64(unsafe.Sizeof(entry{})), int64(unsafe.Sizeof(Record{}))

// liveBytes is what a job holds once it has produced its output
// records: the input records and their values, the spill buffers and
// reducer outputs, and the sort entries and output records. It counts
// lengths, not capacities, so that what a reused Cluster grew for an
// earlier job does not count.
func (c *Cluster) liveBytes(outputs int) int64 {
	var live int64
	for i := range c.slots {
		s := &c.slots[i]
		live += s.input + s.spilled + 2*entrySize*s.shuffled // es and radix scratch
	}
	return live + int64(outputs)*(2*entrySize+recordSize)
}

// collect merges the task counters of the phase just run into counters
// and the slots' busy time into the engine counters, in slot order.
func (c *Cluster) collect(counters map[string]int64) {
	if len(c.Counters.WorkerBusy) < len(c.slots) {
		grown := make([]time.Duration, len(c.slots))
		copy(grown, c.Counters.WorkerBusy)
		c.Counters.WorkerBusy = grown
	}
	for i := range c.slots {
		s := &c.slots[i]
		for k, v := range s.tc.counters {
			counters[k] += v
		}
		clear(s.tc.counters)
		c.Counters.WorkerBusy[i] += s.busy
		s.busy = 0
	}
}

// mapPhase runs one mapper per slot over a contiguous split of input.
// Each mapper serializes its emissions into per-reducer spill buffers
// (the in-memory stand-in for map output files), probing the context
// every CheckStride input records.
func (c *Cluster) mapPhase(ctx context.Context, input []Record, job Job) error {
	workers := len(c.slots)
	chunk := (len(input) + workers - 1) / workers
	return par.Do(workers, func(m int) error {
		s := &c.slots[m]
		start := time.Now()
		defer func() { s.busy += time.Since(start) }()
		emit := func(key int64, value []byte) {
			r := partition(key, workers)
			s.spill[r] = appendRecord(s.spill[r], key, value)
			s.counts[r]++
		}
		for i, rec := range input[min(m*chunk, len(input)):min((m+1)*chunk, len(input))] {
			if i%platform.CheckStride == 0 && ctx.Err() != nil {
				return platform.CheckContextPhase(ctx, "mapreduce/map")
			}
			s.input += recordSize + int64(len(rec.Value))
			job.Map(&s.tc, rec, emit)
		}
		return nil
	})
}

// partition picks the reducer of key.
func partition(key int64, workers int) int {
	if key < 0 {
		return int(uint64(-key) % uint64(workers))
	}
	return int(uint64(key*0x9e3779b9) % uint64(workers))
}

// reduce is reducer r's task: fetch its spill buffer from every mapper
// (cross-worker fetches count as network traffic), decode the records
// in mapper order and sort them by key, and reduce each key group into
// a fresh output buffer (the HDFS write the next job reads).
func (c *Cluster) reduce(ctx context.Context, r int, job Job) error {
	s := &c.slots[r]
	start := time.Now()
	defer func() { s.busy += time.Since(start) }()

	n := 0
	for m := range c.slots {
		s.bufs[m] = c.slots[m].spill[r]
		n += c.slots[m].counts[r]
	}
	es := slices.Grow(s.es[:0], n)
	for m, buf := range s.bufs {
		s.spilled += int64(len(buf))
		if m != r {
			s.network += int64(len(buf))
		}
		for off := 0; off < len(buf); {
			if len(es)%platform.CheckStride == 0 && ctx.Err() != nil {
				return platform.CheckContextPhase(ctx, "mapreduce/shuffle")
			}
			var e entry
			e, off = readEntry(buf, off, m)
			es = append(es, e)
		}
	}
	s.t = slices.Grow(s.t[:0], n)
	s.es = es
	es = sortByKey(es, s.t)

	out := make([]byte, 0, s.outHint)
	s.outRecs = 0
	emit := func(key int64, value []byte) {
		out = appendRecord(out, key, value)
		s.outRecs++
	}
	values := s.values
	for i, groups := 0, 0; i < len(es); groups++ {
		if groups%platform.CheckStride == 0 && ctx.Err() != nil {
			return platform.CheckContextPhase(ctx, "mapreduce/reduce")
		}
		key := es[i].key
		values = values[:0]
		for ; i < len(es) && es[i].key == key; i++ {
			values = append(values, es[i].value(s.bufs))
		}
		job.Reduce(&s.tc, key, values, emit)
	}
	s.values = values
	s.out = out
	s.outHint = len(out) + len(out)/16
	s.spilled += int64(len(out))
	s.shuffled = int64(len(es))
	return nil
}

// output deserializes the job output (the HDFS read of the next job),
// one decoder per reducer output in parallel, and sorts it with the
// partition sort so that chaining is independent of the worker count.
func (c *Cluster) output(ctx context.Context) ([]Record, error) {
	total := 0
	for r := range c.slots {
		c.outBufs[r] = c.slots[r].out
		total += c.slots[r].outRecs
	}
	es := slices.Grow(c.outES[:0], total)[:total]
	c.outES = es
	err := par.Do(len(c.slots), func(r int) error {
		lo := 0
		for i := range r {
			lo += c.slots[i].outRecs
		}
		part := es[lo : lo+c.slots[r].outRecs]
		for i, off := 0, 0; i < len(part); i++ {
			if i%platform.CheckStride == 0 && ctx.Err() != nil {
				return platform.CheckContextPhase(ctx, "mapreduce/output")
			}
			part[i], off = readEntry(c.outBufs[r], off, r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.outT = slices.Grow(c.outT[:0], total)
	es = sortEntries(es, c.outT, c.outBufs)
	output := make([]Record, len(es))
	for i, e := range es {
		output[i] = Record{Key: e.key, Value: e.value(c.outBufs)}
	}
	return output, nil
}
