// Package dataflow implements the GraphX analogue: graph computations
// expressed over immutable, partitioned datasets with a
// Pregel-on-dataflow API built from aggregateMessages + joinVertices
// (§3.2: "GraphX represents graphs as Spark resilient distributed
// datasets (RDDs) ... supports iterative algorithms implemented
// according to the Pregel programming model").
//
// Fidelity notes (why this platform lands where Figure 4 puts GraphX —
// a few times slower than the BSP engine and the first to die on large
// workloads):
//
//   - datasets are immutable: every iteration materializes a NEW vertex
//     attribute array (joinVertices) instead of updating in place;
//   - every aggregateMessages materializes a triplet view: the vertex
//     attributes are mirrored to the edge partitions (arcs × attr-size
//     bytes), exactly GraphX's vertex-replication cost;
//   - lineage retention: the last retainWindow vertex versions stay
//     referenced ("cached RDDs awaiting unpersist"), multiplying the
//     resident footprint;
//   - an enforced memory budget turns that footprint into the observable
//     OOM failures that appear as missing values in Figure 4.
package dataflow

import (
	"context"
	"runtime"
	"sync"
	"time"

	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// Env is the execution environment shared by one algorithm run.
type Env struct {
	G        *graph.Graph
	Parts    int
	Mem      *platform.MemoryTracker
	Counters *platform.Counters

	retained []int64 // byte sizes of retained versions (FIFO)
}

// retainWindow is how many dataset versions lineage keeps alive.
const retainWindow = 3

// NewEnv returns an environment over g.
func NewEnv(g *graph.Graph, parts int, mem *platform.MemoryTracker, counters *platform.Counters) *Env {
	if parts <= 0 {
		parts = runtime.GOMAXPROCS(0)
	}
	return &Env{G: g, Parts: parts, Mem: mem, Counters: counters}
}

// allocRetained accounts a new dataset version and evicts versions
// falling out of the lineage window.
func (e *Env) allocRetained(bytes int64) error {
	if e.Mem == nil {
		return nil
	}
	if err := e.Mem.Alloc(bytes); err != nil {
		return err
	}
	e.retained = append(e.retained, bytes)
	for len(e.retained) > retainWindow {
		e.Mem.Free(e.retained[0])
		e.retained = e.retained[1:]
	}
	return nil
}

// releaseAll frees every retained version (end of run).
func (e *Env) releaseAll() {
	if e.Mem == nil {
		e.retained = nil
		return
	}
	for _, b := range e.retained {
		e.Mem.Free(b)
	}
	e.retained = nil
}

// Ctx is the per-arc message context handed to send functions.
type Ctx[M any] struct {
	env     *Env
	part    int
	acc     map[graph.VertexID]M
	merge   func(M, M) M
	msgSize int64
	sent    int64
	sentB   int64
	netB    int64
	edges   int64
	// repeat is set while the scanned arc repeats its predecessor in the
	// source's sorted adjacency: a parallel arc of a multigraph.
	repeat bool
}

func (c *Ctx[M]) deliver(dst graph.VertexID, m M) {
	if old, ok := c.acc[dst]; ok {
		c.acc[dst] = c.merge(old, m)
	} else {
		c.acc[dst] = m
	}
	c.sent++
	c.sentB += c.msgSize
	// Messages leave the edge partition for the vertex partition; only
	// collocated ones stay local (hash placement, like GraphX routing).
	if int(uint64(dst)*0x9e3779b97f4a7c15>>32)%c.env.Parts != c.part {
		c.netB += c.msgSize
	}
}

// SendToSrc delivers a message to the arc's source vertex.
func (c *Ctx[M]) SendToSrc(u graph.VertexID, m M) { c.deliver(u, m) }

// SendToDst delivers a message to the arc's destination vertex.
func (c *Ctx[M]) SendToDst(v graph.VertexID, m M) { c.deliver(v, m) }

// SendFunc produces messages for one arc (u -> v).
type SendFunc[VD, M any] func(c *Ctx[M], u, v graph.VertexID, du, dv VD)

// SendFuncW produces messages for one arc (u -> v) with its edge weight
// (1 on unweighted graphs) — the triplet view of a weighted property
// graph, used by the weighted workloads (SSSP).
type SendFuncW[VD, M any] func(c *Ctx[M], u, v graph.VertexID, w float64, du, dv VD)

// AggregateMessages scans all arcs (triplet view) and returns the merged
// message per vertex. verts is the current vertex attribute dataset;
// vdSize and msgSize are the per-element sizes used for memory and
// network accounting. merge must be commutative and associative (or the
// caller must canonicalize afterwards, as the CD vote-list merge does).
func AggregateMessages[VD, M any](ctx context.Context, env *Env, verts []VD, vdSize, msgSize int64, send SendFunc[VD, M], merge func(M, M) M) (map[graph.VertexID]M, error) {
	return AggregateMessagesW(ctx, env, verts, vdSize, msgSize,
		func(c *Ctx[M], u, v graph.VertexID, _ float64, du, dv VD) { send(c, u, v, du, dv) }, merge)
}

// AggregateMessagesW is AggregateMessages with edge weights exposed to
// the send function. The triplet scan is chunked across env.Parts
// workers, each probing ctx every CheckStride source vertices, so even
// one scan over a huge arc set stays interruptible.
func AggregateMessagesW[VD, M any](ctx context.Context, env *Env, verts []VD, vdSize, msgSize int64, send SendFuncW[VD, M], merge func(M, M) M) (map[graph.VertexID]M, error) {
	n := env.G.NumVertices()
	arcs := env.G.NumArcs()

	// Triplet view: vertex attributes are mirrored into edge partitions.
	// The mirrors live for the duration of the scan.
	mirrorBytes := arcs * vdSize
	if env.Mem != nil {
		if err := env.Mem.Alloc(mirrorBytes); err != nil {
			env.Mem.Free(mirrorBytes)
			return nil, err
		}
	}
	defer func() {
		if env.Mem != nil {
			env.Mem.Free(mirrorBytes)
		}
	}()

	parts := env.Parts
	ctxs := make([]*Ctx[M], parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	chunk := (n + parts - 1) / parts
	for p := 0; p < parts; p++ {
		lo, hi := p*chunk, (p+1)*chunk
		if hi > n {
			hi = n
		}
		ctxs[p] = &Ctx[M]{env: env, part: p, acc: make(map[graph.VertexID]M), merge: merge, msgSize: msgSize}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			t0 := time.Now()
			c := ctxs[p]
			for u := lo; u < hi; u++ {
				if (u-lo)%platform.CheckStride == 0 && ctx.Err() != nil {
					errs[p] = platform.CheckContextPhase(ctx, "dataflow/aggregate")
					break
				}
				adj := env.G.OutNeighbors(graph.VertexID(u))
				ws := env.G.OutWeights(graph.VertexID(u))
				for i, v := range adj {
					c.repeat = i > 0 && adj[i-1] == v
					send(c, graph.VertexID(u), v, graph.WeightAt(ws, i), verts[u], verts[v])
					c.edges++
				}
			}
			busyAdd(env.Counters, p, parts, time.Since(t0))
		}(p, lo, hi)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}
	var msgBytes int64
	for _, c := range ctxs {
		env.Counters.Messages += c.sent
		env.Counters.MessageBytes += c.sentB
		env.Counters.NetworkBytes += c.netB
		env.Counters.EdgesTraversed += c.edges
		msgBytes += c.sentB
	}

	out, err := shuffleMerge(ctx, env, ctxs, merge)
	if err != nil {
		return nil, err
	}
	// Merged message dataset is retained until joined.
	if env.Mem != nil {
		if err := env.Mem.Alloc(int64(len(out)) * (msgSize + 8)); err != nil {
			env.Mem.Free(int64(len(out)) * (msgSize + 8))
			return nil, err
		}
		env.Mem.Free(int64(len(out)) * (msgSize + 8))
	}
	return out, nil
}

// shuffleMerge combines the per-partition accumulators into one message
// dataset. Each source partition buckets its accumulator by destination
// shard (parallel), then each shard merges its buckets in ascending
// partition order (parallel) — per key that is the exact merge order the
// old sequential loop used, so the result is unchanged for any Parts.
func shuffleMerge[M any](ctx context.Context, env *Env, ctxs []*Ctx[M], merge func(M, M) M) (map[graph.VertexID]M, error) {
	parts := env.Parts
	if parts == 1 {
		// Single partition: its accumulator already is the merged dataset.
		return ctxs[0].acc, nil
	}
	type kv struct {
		v graph.VertexID
		m M
	}
	shardOf := func(v graph.VertexID) int {
		return int(uint64(v)*0x9e3779b97f4a7c15>>32) % parts
	}
	buckets := make([][][]kv, parts) // [src partition][dst shard]
	errs := make([]error, parts)
	var bwg sync.WaitGroup
	for p := 0; p < parts; p++ {
		bwg.Add(1)
		go func(p int) {
			defer bwg.Done()
			b := make([][]kv, parts)
			cnt := 0
			for v, m := range ctxs[p].acc {
				if cnt%platform.CheckStride == 0 && ctx.Err() != nil {
					errs[p] = platform.CheckContextPhase(ctx, "dataflow/shuffle")
					return
				}
				cnt++
				s := shardOf(v)
				b[s] = append(b[s], kv{v, m})
			}
			buckets[p] = b
		}(p)
	}
	bwg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}

	shards := make([]map[graph.VertexID]M, parts)
	var mwg sync.WaitGroup
	for s := 0; s < parts; s++ {
		mwg.Add(1)
		go func(s int) {
			defer mwg.Done()
			shard := make(map[graph.VertexID]M)
			cnt := 0
			for p := 0; p < parts; p++ {
				for _, e := range buckets[p][s] {
					if cnt%platform.CheckStride == 0 && ctx.Err() != nil {
						errs[s] = platform.CheckContextPhase(ctx, "dataflow/shuffle")
						return
					}
					cnt++
					if old, ok := shard[e.v]; ok {
						shard[e.v] = merge(old, e.m)
					} else {
						shard[e.v] = e.m
					}
				}
			}
			shards[s] = shard
		}(s)
	}
	mwg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}

	total := 0
	for _, shard := range shards {
		total += len(shard)
	}
	out := make(map[graph.VertexID]M, total)
	for _, shard := range shards {
		for v, m := range shard {
			out[v] = m
		}
	}
	return out, nil
}

// JoinVertices materializes the next immutable vertex dataset: a full
// copy of verts with f applied to vertices that received a message. The
// copy and the per-message joins are chunked across env.Parts workers;
// f may be called concurrently and must not mutate state shared across
// calls (per-vertex writes to distinct slice elements are fine).
func JoinVertices[VD, M any](ctx context.Context, env *Env, verts []VD, vdSize int64, msgs map[graph.VertexID]M, f func(v graph.VertexID, d VD, m M) VD) ([]VD, error) {
	if err := env.allocRetained(int64(len(verts)) * vdSize); err != nil {
		return nil, err
	}
	next := make([]VD, len(verts))
	if err := forChunks(env.Parts, len(verts), func(_, lo, hi int) error {
		if ctx.Err() != nil {
			return platform.CheckContextPhase(ctx, "dataflow/join")
		}
		copy(next[lo:hi], verts[lo:hi])
		return nil
	}); err != nil {
		return nil, err
	}
	keys := make([]graph.VertexID, 0, len(msgs))
	for v := range msgs {
		keys = append(keys, v)
	}
	if err := forChunks(env.Parts, len(keys), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if (i-lo)%platform.CheckStride == 0 && ctx.Err() != nil {
				return platform.CheckContextPhase(ctx, "dataflow/join")
			}
			v := keys[i]
			next[v] = f(v, verts[v], msgs[v])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return next, nil
}

// MapVertices materializes a fresh dataset with f applied everywhere,
// chunked across env.Parts workers; f may be called concurrently.
func MapVertices[VD any](ctx context.Context, env *Env, n int, vdSize int64, f func(v graph.VertexID) VD) ([]VD, error) {
	if err := env.allocRetained(int64(n) * vdSize); err != nil {
		return nil, err
	}
	out := make([]VD, n)
	if err := forChunks(env.Parts, n, func(_, lo, hi int) error {
		for v := lo; v < hi; v++ {
			if (v-lo)%platform.CheckStride == 0 && ctx.Err() != nil {
				return platform.CheckContextPhase(ctx, "dataflow/map")
			}
			out[v] = f(graph.VertexID(v))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// forChunks runs body over one contiguous chunk of [0, n) per partition
// concurrently and returns the lowest-partition error. Bodies do their
// own amortized context checks when they loop.
func forChunks(parts, n int, body func(part, lo, hi int) error) error {
	if parts < 1 {
		parts = 1
	}
	chunk := (n + parts - 1) / parts
	if chunk < 1 {
		chunk = 1
	}
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		lo, hi := p*chunk, (p+1)*chunk
		if lo >= n {
			break
		}
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			errs[p] = body(p, lo, hi)
		}(p, lo, hi)
	}
	wg.Wait()
	return firstError(errs)
}

// firstError returns the lowest-indexed non-nil error from a per-worker
// error slice (deterministic pick under concurrent interruption).
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Canonical reports whether the scanned arc (u, v) is the canonical arc
// of its unordered pair: the first copy of u→v, with u < v or no
// reciprocal arc v→u. Algorithms that must interact once per neighbor
// pair (CD votes, STATS counts) send only along canonical arcs.
func (c *Ctx[M]) Canonical(u, v graph.VertexID) bool {
	return !c.repeat && (u < v || !c.env.G.HasArc(v, u))
}

var busyMu sync.Mutex

func busyAdd(c *platform.Counters, w, workers int, d time.Duration) {
	if c == nil {
		return
	}
	busyMu.Lock()
	defer busyMu.Unlock()
	if len(c.WorkerBusy) < workers {
		grown := make([]time.Duration, workers)
		copy(grown, c.WorkerBusy)
		c.WorkerBusy = grown
	}
	c.WorkerBusy[w] += d
}
