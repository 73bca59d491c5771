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
//     OOM failures that appear as missing values in Figure 4;
//   - messages are counted per arc (Messages, MessageBytes) and charged
//     to the network unless the destination hashes to the sending
//     partition, like GraphX's routing of messages to vertex partitions;
//     the merged message dataset is charged at (msgSize+8) bytes per
//     receiver.
//
// What is not modelled is the harness's own bookkeeping, which stays
// off the hash-map path: like GraphX's edge-partition scan, each
// partition aggregates into a dense array over the vertex ids plus a
// received flag per vertex, and the shuffle folds the partitions'
// arrays per vertex in ascending partition order, so float merges are
// bit-identical for a given Parts. List-valued messages (CollectMessages,
// GraphX's collectNeighbors) are appended to per-partition pair buffers
// kept for the whole run and cut into per-vertex lists by a counting
// sort. The accumulators cost Parts × |V| × (sizeof(M)+1) bytes of real
// memory per AggregateMessages call; the memory budget does not see
// them, as it does not see the Go maps they replaced. Likewise unseen:
// LCC's closed-pair counting keeps two algo.ClosedPairs bitsets of n/8
// bytes per partition (indexed by Ctx.Part).
package dataflow

import (
	"context"
	"runtime"
	"slices"
	"time"

	"graphalytics/internal/graph"
	"graphalytics/internal/par"
	"graphalytics/internal/platform"
)

// Env is the execution environment shared by one algorithm run.
type Env struct {
	G        *graph.Graph
	Parts    int
	Mem      *platform.MemoryTracker
	Counters *platform.Counters

	retained []int64 // byte sizes of retained versions (FIFO)
	// collect holds the []*Ctx[M] of the last CollectMessages call, whose
	// pair buffers the next call of the same M reuses.
	collect any
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

// Ctx is the per-arc message context handed to send functions. An
// aggregating scan merges each message into the partition's dense
// accumulator (acc, has); a collecting scan (merge == nil) appends it to
// the partition's pair buffer (dsts, msgs).
type Ctx[M any] struct {
	env     *Env
	part    int
	acc     []M
	has     []bool
	merge   func(M, M) M
	dsts    []graph.VertexID
	msgs    []M
	msgSize int64
	sent    int64
	sentB   int64
	netB    int64
	edges   int64
	busy    time.Duration
	// repeat is set while the scanned arc repeats its predecessor in the
	// source's sorted adjacency: a parallel arc of a multigraph.
	repeat bool
}

func (c *Ctx[M]) deliver(dst graph.VertexID, m M) {
	switch {
	case c.merge == nil:
		c.dsts = append(c.dsts, dst)
		c.msgs = append(c.msgs, m)
	case c.has[dst]:
		c.acc[dst] = c.merge(c.acc[dst], m)
	default:
		c.acc[dst] = m
		c.has[dst] = true
	}
	c.sent++
	c.sentB += c.msgSize
	// Messages leave the edge partition for the vertex partition; only
	// collocated ones stay local (hash placement, like GraphX routing).
	if int(uint64(dst)*0x9e3779b97f4a7c15>>32)%c.env.Parts != c.part {
		c.netB += c.msgSize
	}
}

// Part returns the index of the edge partition running this context,
// in [0, Parts): send functions index per-partition scratch with it.
func (c *Ctx[M]) Part() int { return c.part }

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

// Msgs is a message dataset with at most one message per vertex, the
// result of AggregateMessages and CollectMessages and the input of
// JoinVertices. It is held densely over the vertex ids, like GraphX's
// aggregate array plus bitset; a vertex that received nothing reads as
// M's zero value.
type Msgs[M any] struct {
	vals []M
	has  []bool
	keys []graph.VertexID // the receivers, ascending
}

func newMsgs[M any](n int) Msgs[M] {
	return Msgs[M]{vals: make([]M, n), has: make([]bool, n)}
}

// Len returns the number of vertices that received a message.
func (m Msgs[M]) Len() int { return len(m.keys) }

// Get returns v's message, or the zero M if v received none.
func (m Msgs[M]) Get(v graph.VertexID) M { return m.vals[v] }

// set stores x as v's message. A caller that sets receivers out of
// ascending order sorts keys afterwards.
func (m *Msgs[M]) set(v graph.VertexID, x M) {
	m.vals[v] = x
	if !m.has[v] {
		m.has[v] = true
		m.keys = append(m.keys, v)
	}
}

// AggregateMessages scans all arcs (triplet view) and returns the merged
// message per vertex. verts is the current vertex attribute dataset;
// vdSize and msgSize are the per-element sizes used for memory and
// network accounting. merge must be commutative and associative (or the
// caller must canonicalize afterwards).
func AggregateMessages[VD, M any](ctx context.Context, env *Env, verts []VD, vdSize, msgSize int64, send SendFunc[VD, M], merge func(M, M) M) (Msgs[M], error) {
	return AggregateMessagesW(ctx, env, verts, vdSize, msgSize,
		func(c *Ctx[M], u, v graph.VertexID, _ float64, du, dv VD) { send(c, u, v, du, dv) }, merge)
}

// AggregateMessagesW is AggregateMessages with edge weights exposed to
// the send function. Each partition merges its messages into a dense
// accumulator over all vertices, in scan order; the shuffle then folds
// partitions 1…Parts-1 into partition 0's accumulator, per vertex in
// ascending partition order, chunked by vertex range across env.Parts
// workers. That fixed association makes float merges bit-identical for
// a given Parts.
func AggregateMessagesW[VD, M any](ctx context.Context, env *Env, verts []VD, vdSize, msgSize int64, send SendFuncW[VD, M], merge func(M, M) M) (Msgs[M], error) {
	n := env.G.NumVertices()
	ctxs := make([]*Ctx[M], env.Parts)
	for p := range ctxs {
		ctxs[p] = &Ctx[M]{env: env, part: p, acc: make([]M, n), has: make([]bool, n), merge: merge, msgSize: msgSize}
	}
	release, err := chargeMirrors(env, vdSize)
	if err != nil {
		return Msgs[M]{}, err
	}
	defer release()
	if err := scan(ctx, env, verts, ctxs, send); err != nil {
		return Msgs[M]{}, err
	}

	out := Msgs[M]{vals: ctxs[0].acc, has: ctxs[0].has}
	keys := make([][]graph.VertexID, env.Parts)
	if err := par.Ranges(n, env.Parts, func(part, lo, hi int) error {
		var ks []graph.VertexID
		for v := lo; v < hi; v++ {
			if (v-lo)%platform.CheckStride == 0 && ctx.Err() != nil {
				return platform.CheckContextPhase(ctx, "dataflow/shuffle")
			}
			for _, c := range ctxs[1:] {
				switch {
				case !c.has[v]:
				case out.has[v]:
					out.vals[v] = merge(out.vals[v], c.acc[v])
				default:
					out.vals[v], out.has[v] = c.acc[v], true
				}
			}
			if out.has[v] {
				ks = append(ks, graph.VertexID(v))
			}
		}
		keys[part] = ks
		return nil
	}); err != nil {
		return Msgs[M]{}, err
	}
	out.keys = slices.Concat(keys...)
	if err := chargeMerged(env, out.Len(), msgSize); err != nil {
		return Msgs[M]{}, err
	}
	return out, nil
}

// CollectMessages scans all arcs like AggregateMessages but keeps every
// message: each vertex receives the list of its messages, concatenated
// in (partition, scan) order — GraphX's collectNeighbors. msgSize is
// the accounted size of one message. Each partition appends
// (destination, message) pairs to a buffer the Env keeps for the whole
// run; a counting sort over destinations then cuts every vertex's list
// from one arena. Each list is capped at its own length, so appending
// to it reallocates instead of writing into the next vertex's list.
func CollectMessages[VD, M any](ctx context.Context, env *Env, verts []VD, vdSize, msgSize int64, send SendFunc[VD, M]) (Msgs[[]M], error) {
	ctxs, ok := env.collect.([]*Ctx[M])
	if !ok {
		ctxs = make([]*Ctx[M], env.Parts)
		for p := range ctxs {
			ctxs[p] = &Ctx[M]{}
		}
		env.collect = ctxs
	}
	for p, c := range ctxs {
		*c = Ctx[M]{env: env, part: p, dsts: c.dsts[:0], msgs: c.msgs[:0], msgSize: msgSize}
	}
	release, err := chargeMirrors(env, vdSize)
	if err != nil {
		return Msgs[[]M]{}, err
	}
	defer release()
	if err := scan(ctx, env, verts, ctxs,
		func(c *Ctx[M], u, v graph.VertexID, _ float64, du, dv VD) { send(c, u, v, du, dv) }); err != nil {
		return Msgs[[]M]{}, err
	}

	n := env.G.NumVertices()
	out := newMsgs[[]M](n)
	counts := make([]int, n)
	total := 0
	for _, c := range ctxs {
		for i, d := range c.dsts {
			if i%platform.CheckStride == 0 && ctx.Err() != nil {
				return Msgs[[]M]{}, platform.CheckContextPhase(ctx, "dataflow/shuffle")
			}
			counts[d]++
		}
		total += len(c.dsts)
	}
	arena := make([]M, total)
	off := 0
	for v, k := range counts {
		if v%platform.CheckStride == 0 && ctx.Err() != nil {
			return Msgs[[]M]{}, platform.CheckContextPhase(ctx, "dataflow/shuffle")
		}
		if k > 0 {
			out.vals[v] = arena[off : off : off+k]
			out.has[v] = true
			out.keys = append(out.keys, graph.VertexID(v))
			off += k
		}
	}
	for _, c := range ctxs {
		for i, d := range c.dsts {
			if i%platform.CheckStride == 0 && ctx.Err() != nil {
				return Msgs[[]M]{}, platform.CheckContextPhase(ctx, "dataflow/shuffle")
			}
			out.vals[d] = append(out.vals[d], c.msgs[i])
		}
	}
	if err := chargeMerged(env, out.Len(), msgSize); err != nil {
		return Msgs[[]M]{}, err
	}
	return out, nil
}

// scan is the triplet scan shared by AggregateMessagesW and
// CollectMessages: send runs on every arc, the sources chunked across
// env.Parts partitions with partition p delivering through ctxs[p]. Each
// partition probes ctx every CheckStride source vertices, so even one
// scan over a huge arc set stays interruptible. The partitions' counters
// are added to env.Counters.
func scan[VD, M any](ctx context.Context, env *Env, verts []VD, ctxs []*Ctx[M], send SendFuncW[VD, M]) error {
	n := env.G.NumVertices()
	if err := par.Ranges(n, len(ctxs), func(p, lo, hi int) error {
		c := ctxs[p]
		t0 := time.Now()
		for u := lo; u < hi; u++ {
			if (u-lo)%platform.CheckStride == 0 && ctx.Err() != nil {
				return platform.CheckContextPhase(ctx, "dataflow/aggregate")
			}
			adj := env.G.OutNeighbors(graph.VertexID(u))
			ws := env.G.OutWeights(graph.VertexID(u))
			for i, v := range adj {
				c.repeat = i > 0 && adj[i-1] == v
				send(c, graph.VertexID(u), v, graph.WeightAt(ws, i), verts[u], verts[v])
				c.edges++
			}
		}
		c.busy = time.Since(t0)
		return nil
	}); err != nil {
		return err
	}
	if len(env.Counters.WorkerBusy) < len(ctxs) {
		grown := make([]time.Duration, len(ctxs))
		copy(grown, env.Counters.WorkerBusy)
		env.Counters.WorkerBusy = grown
	}
	for p, c := range ctxs {
		env.Counters.Messages += c.sent
		env.Counters.MessageBytes += c.sentB
		env.Counters.NetworkBytes += c.netB
		env.Counters.EdgesTraversed += c.edges
		env.Counters.WorkerBusy[p] += c.busy
	}
	return nil
}

// chargeMirrors accounts the triplet view: the vertex attributes
// mirrored into the edge partitions, held until the returned release
// is called once the scan's messages are merged.
func chargeMirrors(env *Env, vdSize int64) (release func(), err error) {
	if env.Mem == nil {
		return func() {}, nil
	}
	bytes := env.G.NumArcs() * vdSize
	if err := env.Mem.Alloc(bytes); err != nil {
		env.Mem.Free(bytes)
		return nil, err
	}
	return func() { env.Mem.Free(bytes) }, nil
}

// chargeMerged accounts the merged message dataset of receivers
// vertices, retained until it is joined.
func chargeMerged(env *Env, receivers int, msgSize int64) error {
	if env.Mem == nil {
		return nil
	}
	bytes := int64(receivers) * (msgSize + 8)
	err := env.Mem.Alloc(bytes)
	env.Mem.Free(bytes)
	return err
}

// JoinVertices materializes the next immutable vertex dataset: a full
// copy of verts with f applied to vertices that received a message. The
// copy and the per-message joins are chunked across env.Parts workers;
// f may be called concurrently and must not mutate state shared across
// calls (per-vertex writes to distinct slice elements are fine).
func JoinVertices[VD, M any](ctx context.Context, env *Env, verts []VD, vdSize int64, msgs Msgs[M], f func(v graph.VertexID, d VD, m M) VD) ([]VD, error) {
	if err := env.allocRetained(int64(len(verts)) * vdSize); err != nil {
		return nil, err
	}
	next := make([]VD, len(verts))
	if err := par.Ranges(len(verts), env.Parts, func(_, lo, hi int) error {
		if ctx.Err() != nil {
			return platform.CheckContextPhase(ctx, "dataflow/join")
		}
		copy(next[lo:hi], verts[lo:hi])
		return nil
	}); err != nil {
		return nil, err
	}
	if err := par.Ranges(msgs.Len(), env.Parts, func(_, lo, hi int) error {
		for i, v := range msgs.keys[lo:hi] {
			if i%platform.CheckStride == 0 && ctx.Err() != nil {
				return platform.CheckContextPhase(ctx, "dataflow/join")
			}
			next[v] = f(v, verts[v], msgs.vals[v])
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
	if err := par.Ranges(n, env.Parts, func(_, lo, hi int) error {
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

// Canonical reports whether the scanned arc (u, v) is the canonical arc
// of its unordered pair: the first copy of u→v, with u < v or no
// reciprocal arc v→u. Algorithms that must interact once per neighbor
// pair (CD votes, STATS counts) send only along canonical arcs.
func (c *Ctx[M]) Canonical(u, v graph.VertexID) bool {
	return !c.repeat && (u < v || !c.env.G.HasArc(v, u))
}
