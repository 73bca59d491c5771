// Package pregel implements the Giraph analogue: a Pregel-model bulk
// synchronous parallel (BSP) engine (§3.2: "computation is
// vertex-centric and progresses in steps separated by synchronization
// barriers. All vertices execute the same function in parallel during a
// computation step, using as input messages received from other
// vertices") together with vertex-centric implementations of all five
// Graphalytics algorithms.
//
// Fidelity notes (what makes this engine behave like Giraph in the
// Figure 4/5 experiments):
//
//   - vertex state and adjacency stay resident in compact arrays; only
//     messages are produced per superstep — the reason the BSP engine is
//     the fastest distributed platform in the matrix;
//   - vertices are hash-partitioned across workers; messages crossing a
//     partition boundary are counted as network traffic (choke point
//     §2.1 "excessive network utilization");
//   - optional sender-side combiners reduce message volume (ablation);
//   - each worker's outboxes and each destination worker's inbox arena
//     are real memory allocated once per run and reused every
//     superstep; the memory budget still charges every superstep's
//     messages as they are sent;
//   - per-worker busy times and per-superstep active-vertex counts are
//     recorded (choke point §2.1 "skewed execution intensity");
//   - all message effects are order-insensitive or internally sorted, so
//     results are identical to the sequential reference regardless of
//     scheduling.
//
// What is not modelled: STATS and LCC count closed pairs against one
// algo.ClosedPairs bitset per worker (indexed by VCtx.Worker), n/8
// bytes of real memory each that the memory budget does not see.
package pregel

import (
	"context"
	"runtime"
	"slices"
	"time"

	"graphalytics/internal/graph"
	"graphalytics/internal/par"
	"graphalytics/internal/platform"
	"graphalytics/internal/telemetry"
)

// ComputeFunc is the vertex program executed each superstep. msgs holds
// the messages delivered to v this superstep, in (source worker, send)
// order; it is empty in superstep 0 and whenever nothing arrived. msgs
// is valid only during the call: the engine reuses its storage for the
// next superstep's delivery, so a program copies what it keeps. A
// program may reorder msgs in place, as algo.TallyVotes does; appending
// to it reallocates instead of writing into another vertex's messages.
type ComputeFunc[M any] func(c *VCtx[M], v graph.VertexID, msgs []M)

// Engine is a BSP execution engine for message type M.
type Engine[M any] struct {
	// G is the loaded graph.
	G *graph.Graph
	// Workers is the number of BSP workers (partitions).
	Workers int
	// Partitioner maps vertices to workers (nil = hash).
	Partitioner graph.Partitioner
	// Combiner, when non-nil, merges messages addressed to the same
	// vertex at the sender side (Giraph message combiner).
	Combiner func(a, b M) M
	// MsgBytes estimates the payload size of a message for memory and
	// network accounting.
	MsgBytes func(M) int64
	// Mem enforces the platform memory budget.
	Mem *platform.MemoryTracker
	// Counters receives the run's metrics.
	Counters *platform.Counters
	// MaxSupersteps bounds execution (safety).
	MaxSupersteps int

	// AggMerge registers aggregator merge functions by name.
	AggMerge map[string]func(a, b any) any

	partOf   []int32
	byPart   [][]graph.VertexID
	localIdx []int32   // vertex -> index within its partition's vertex list
	inbox    [][]M     // this superstep's messages, cut from arena
	counts   [][]int32 // per destination worker: messages per local vertex
	arena    [][]M     // per destination worker: backing of its inboxes
	halted   []bool
	aggPrev  map[string]any
	aggCur   map[string]any
	step     int

	liveMsgBytes int64
}

// VCtx is the per-worker compute context handed to vertex programs.
type VCtx[M any] struct {
	e       *Engine[M]
	worker  int
	outbox  [][]targeted[M]  // per destination worker
	combuf  []*combineBuf[M] // per destination worker, when combining
	lagg    map[string]any   // worker-local aggregations
	haltReq []graph.VertexID // vertices voting to halt this superstep
	nbh     []graph.VertexID // SendToAllNeighbors scratch
	sent    int64
	sentB   int64
	netB    int64
	edges   int64
}

type targeted[M any] struct {
	dst graph.VertexID
	msg M
}

// combineBuf is a dense sender-side combining store for one destination
// partition (Giraph's primitive-array message store): one slot per
// destination-partition vertex, addressed by local index.
type combineBuf[M any] struct {
	vals    []M
	present []bool
	touched []int32 // local indices written this superstep
}

func newCombineBuf[M any](size int) *combineBuf[M] {
	return &combineBuf[M]{vals: make([]M, size), present: make([]bool, size)}
}

// reset clears the buffer for the next superstep (O(touched)).
func (b *combineBuf[M]) reset() {
	var zero M
	for _, li := range b.touched {
		b.present[li] = false
		b.vals[li] = zero
	}
	b.touched = b.touched[:0]
}

// Superstep returns the current superstep number (0-based).
func (c *VCtx[M]) Superstep() int { return c.e.step }

// Worker returns the index of the worker running this context, in
// [0, Workers): vertex programs index per-worker scratch with it.
func (c *VCtx[M]) Worker() int { return c.worker }

// Graph returns the graph being processed.
func (c *VCtx[M]) Graph() *graph.Graph { return c.e.G }

// Send delivers m to dst at the next superstep.
func (c *VCtx[M]) Send(dst graph.VertexID, m M) {
	w := c.e.workerOf(dst)
	size := c.e.MsgBytes(m)
	if c.combuf != nil {
		buf := c.combuf[w]
		li := c.e.localIdx[dst]
		if buf.present[li] {
			buf.vals[li] = c.e.Combiner(buf.vals[li], m)
			return // combined: no new message materialized
		}
		buf.present[li] = true
		buf.vals[li] = m
		buf.touched = append(buf.touched, li)
		c.sent++
		c.sentB += size
		if w != c.worker {
			c.netB += size
		}
		return
	}
	if w != c.worker {
		c.netB += size
	}
	out := c.outbox[w]
	if len(out) == cap(out) {
		// Double, where append grows a large slice by 1.25×: an outbox
		// grows only until the run's busiest superstep, and doubling
		// allocates about twice its final size on the way, not five times.
		out = slices.Grow(out, len(out))
	}
	c.outbox[w] = append(out, targeted[M]{dst: dst, msg: m})
	c.sent++
	c.sentB += size
}

// SendToOutNeighbors sends m along every out-edge of v.
func (c *VCtx[M]) SendToOutNeighbors(v graph.VertexID, m M) {
	for _, u := range c.e.G.OutNeighbors(v) {
		c.Send(u, m)
	}
	c.edges += int64(c.e.G.OutDegree(v))
}

// SendToAllNeighbors sends m to N(v) = out ∪ in (the CD/CONN
// neighborhood for directed graphs).
func (c *VCtx[M]) SendToAllNeighbors(v graph.VertexID, m M) {
	if !c.e.G.Directed() {
		c.SendToOutNeighbors(v, m)
		return
	}
	c.nbh = c.e.G.Neighborhood(v, c.nbh[:0])
	for _, u := range c.nbh {
		c.Send(u, m)
	}
	c.edges += int64(len(c.nbh))
}

// VoteToHalt deactivates v until a message wakes it.
func (c *VCtx[M]) VoteToHalt(v graph.VertexID) {
	c.haltReq = append(c.haltReq, v)
}

// Aggregate folds value into the named aggregator (visible to vertices
// and the master hook after this superstep).
func (c *VCtx[M]) Aggregate(name string, value any) {
	if cur, ok := c.lagg[name]; ok {
		c.lagg[name] = c.e.AggMerge[name](cur, value)
	} else {
		c.lagg[name] = value
	}
}

// AggValue returns the named aggregator's value from the previous
// superstep (nil if absent).
func (c *VCtx[M]) AggValue(name string) any { return c.e.aggPrev[name] }

// CountEdges adds n to the traversed-edge counter without sending.
func (c *VCtx[M]) CountEdges(n int64) { c.edges += n }

// MasterFunc runs after each superstep with the aggregated values; it
// returns replacement aggregator values to publish (may be the same map)
// and whether the computation should stop.
type MasterFunc func(step int, agg map[string]any) (publish map[string]any, stop bool)

// Run executes the BSP loop until no vertex is active and no message is
// in flight, the master stops it, or MaxSupersteps is hit.
func (e *Engine[M]) Run(ctx context.Context, compute ComputeFunc[M], master MasterFunc) error {
	n := e.G.NumVertices()
	if e.Workers <= 0 {
		e.Workers = runtime.GOMAXPROCS(0)
	}
	if e.Partitioner == nil {
		e.Partitioner = graph.NewHashPartitioner(e.Workers)
	}
	if e.MaxSupersteps <= 0 {
		e.MaxSupersteps = 2*n + 10
	}
	if e.MsgBytes == nil {
		e.MsgBytes = func(M) int64 { return 8 }
	}
	if e.Counters == nil {
		e.Counters = &platform.Counters{}
	}

	e.partOf = make([]int32, n)
	e.byPart = make([][]graph.VertexID, e.Workers)
	e.localIdx = make([]int32, n)
	for v := 0; v < n; v++ {
		p := e.Partitioner.Assign(graph.VertexID(v)) % e.Workers
		e.partOf[v] = int32(p)
		e.localIdx[v] = int32(len(e.byPart[p]))
		e.byPart[p] = append(e.byPart[p], graph.VertexID(v))
	}
	e.inbox = make([][]M, n)
	e.counts = make([][]int32, e.Workers)
	e.arena = make([][]M, e.Workers)
	for w := range e.counts {
		e.counts[w] = make([]int32, len(e.byPart[w]))
	}
	e.halted = make([]bool, n)
	e.aggPrev = map[string]any{}
	e.aggCur = map[string]any{}
	var engineBytes int64
	if e.Mem != nil {
		// Engine bookkeeping: partition maps + inbox headers + halt flags.
		engineBytes = int64(n) * (4 + 4 + 48 + 1)
		if err := e.Mem.Alloc(engineBytes); err != nil {
			e.Mem.Free(engineBytes)
			return err
		}
		defer e.Mem.Free(engineBytes)
		defer func() {
			e.Mem.Free(e.liveMsgBytes)
			e.liveMsgBytes = 0
		}()
	}
	if len(e.Counters.WorkerBusy) < e.Workers {
		e.Counters.WorkerBusy = make([]time.Duration, e.Workers)
	}

	ctxs := make([]*VCtx[M], e.Workers)
	for w := 0; w < e.Workers; w++ {
		ctxs[w] = &VCtx[M]{e: e, worker: w, outbox: make([][]targeted[M], e.Workers), lagg: map[string]any{}}
		if e.Combiner != nil {
			ctxs[w].combuf = make([]*combineBuf[M], e.Workers)
			for dw := 0; dw < e.Workers; dw++ {
				ctxs[w].combuf[dw] = newCombineBuf[M](len(e.byPart[dw]))
			}
		}
	}
	if e.Combiner != nil && e.Mem != nil {
		// Dense combining stores: Workers × n slots.
		combBytes := int64(e.Workers) * int64(n) * (e.MsgBytes(*new(M)) + 1)
		if err := e.Mem.Alloc(combBytes); err != nil {
			e.Mem.Free(combBytes)
			return err
		}
		defer e.Mem.Free(combBytes)
	}

	for e.step = 0; e.step < e.MaxSupersteps; e.step++ {
		if err := platform.CheckContextPhase(ctx, "pregel/superstep"); err != nil {
			return err
		}
		active := e.countActive()
		e.Counters.ActivePerStep = append(e.Counters.ActivePerStep, active)
		if active == 0 {
			break
		}
		e.Counters.Supersteps++
		ssp := telemetry.StartSpan("pregel", "superstep")
		ssp.SetAttr("step", e.step)
		ssp.SetAttr("active", active)
		ssp.SetAttr("workers", e.Workers)

		// Compute phase. Each worker probes the context every CheckStride
		// vertices so even one huge superstep stays interruptible.
		if err := par.Do(e.Workers, func(w int) (err error) {
			c := ctxs[w]
			clear(c.lagg)
			c.haltReq = c.haltReq[:0]
			start := time.Now()
			for i, v := range e.byPart[w] {
				if i%platform.CheckStride == 0 && ctx.Err() != nil {
					err = platform.CheckContextPhase(ctx, "pregel/compute")
					break
				}
				msgs := e.inbox[v]
				if e.halted[v] && len(msgs) == 0 {
					continue
				}
				e.halted[v] = false
				compute(c, v, msgs)
			}
			e.Counters.WorkerBusy[w] += time.Since(start)
			return err
		}); err != nil {
			ssp.SetAttr("error", err.Error())
			ssp.End()
			return err
		}

		// Apply halt votes and release the consumed messages.
		for _, c := range ctxs {
			for _, v := range c.haltReq {
				e.halted[v] = true
			}
		}
		if e.Mem != nil {
			e.Mem.Free(e.liveMsgBytes)
			e.liveMsgBytes = 0
		}

		// Aggregator merge in worker order (deterministic).
		for _, c := range ctxs {
			for name, val := range c.lagg {
				if cur, ok := e.aggCur[name]; ok {
					e.aggCur[name] = e.AggMerge[name](cur, val)
				} else {
					e.aggCur[name] = val
				}
			}
		}

		// Deliver phase: each destination worker cuts its vertices'
		// inboxes for the next superstep.
		var totalSent, totalB, netB, edges int64
		for _, c := range ctxs {
			totalSent += c.sent
			totalB += c.sentB
			netB += c.netB
			edges += c.edges
			c.sent, c.sentB, c.netB, c.edges = 0, 0, 0, 0
		}
		e.Counters.Messages += totalSent
		e.Counters.MessageBytes += totalB
		e.Counters.NetworkBytes += netB
		e.Counters.EdgesTraversed += edges
		if e.Mem != nil {
			e.liveMsgBytes = totalB
			if err := e.Mem.Alloc(totalB); err != nil {
				return err
			}
		}
		if err := par.Do(e.Workers, func(dw int) error { return e.deliver(ctx, dw, ctxs) }); err != nil {
			ssp.SetAttr("error", err.Error())
			ssp.End()
			return err
		}
		ssp.SetAttr("messages", totalSent)
		ssp.End()

		// Master hook sees aggregated values, publishes for the next step.
		e.aggPrev = e.aggCur
		e.aggCur = map[string]any{}
		if master != nil {
			publish, stop := master(e.step, e.aggPrev)
			if publish != nil {
				e.aggPrev = publish
			}
			if stop {
				break
			}
		}
	}
	return nil
}

// deliver cuts the inboxes of destination worker dw's vertices from
// one arena by a counting sort over the messages addressed to dw:
// count them per local vertex, give each vertex a slice of the arena
// capped at its count (nil when nothing arrived), then copy the
// messages in. Source workers are walked in worker order and each
// one's messages in send order, so every vertex receives its messages
// in (source worker, send) order. The consumed outboxes and combining
// stores are emptied for the next superstep. Delivery starts after the
// compute barrier, so the arena's previous contents are dead.
func (e *Engine[M]) deliver(ctx context.Context, dw int, ctxs []*VCtx[M]) error {
	verts := e.byPart[dw]
	counts := e.counts[dw]
	clear(counts)
	total := 0
	for _, c := range ctxs {
		if c.combuf != nil {
			touched := c.combuf[dw].touched
			for _, li := range touched {
				counts[li]++
			}
			total += len(touched)
			continue
		}
		for _, t := range c.outbox[dw] {
			counts[e.localIdx[t.dst]]++
		}
		total += len(c.outbox[dw])
	}

	arena := e.arena[dw]
	if total < len(arena) {
		clear(arena[total:]) // drop stale messages' references
	}
	if cap(arena) < total {
		arena = make([]M, 0, total+total/4)
	}
	arena = arena[:total]
	e.arena[dw] = arena
	off := 0
	for li, k := range counts {
		v := verts[li]
		if k == 0 {
			e.inbox[v] = nil
			continue
		}
		end := off + int(k)
		e.inbox[v] = arena[off:off:end]
		off = end
	}

	for _, c := range ctxs {
		if c.combuf != nil {
			buf := c.combuf[dw]
			for i, li := range buf.touched {
				if i%platform.CheckStride == 0 && ctx.Err() != nil {
					return platform.CheckContextPhase(ctx, "pregel/deliver")
				}
				v := verts[li]
				e.inbox[v] = append(e.inbox[v], buf.vals[li])
			}
			buf.reset()
			continue
		}
		out := c.outbox[dw]
		for i, t := range out {
			if i%platform.CheckStride == 0 && ctx.Err() != nil {
				return platform.CheckContextPhase(ctx, "pregel/deliver")
			}
			e.inbox[t.dst] = append(e.inbox[t.dst], t.msg)
		}
		clear(out) // drop the messages' references before reuse
		c.outbox[dw] = out[:0]
	}
	return nil
}

func (e *Engine[M]) workerOf(v graph.VertexID) int { return int(e.partOf[v]) }

func (e *Engine[M]) countActive() int64 {
	var active int64
	for v := 0; v < len(e.halted); v++ {
		if !e.halted[v] || len(e.inbox[v]) > 0 {
			active++
		}
	}
	return active
}
