package pregel

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"graphalytics/internal/algo"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// The oracle below is the per-vertex append delivery the counting-sort
// arenas replaced: every superstep starts from empty inboxes, and each
// destination worker appends its source workers' messages, in worker
// order, to the receiving vertex's own list. A non-combining source
// delivers its outbox in send order, a combining one its folded values
// in ascending local index.

// inboxSteps is how many supersteps the delivery tests run.
const inboxSteps = 9

// inboxSends returns the messages vertex u sends in superstep s. Each
// payload is unique to (s, u, k), so a message delivered twice, late or
// out of order shows. Ordinary vertices receive random traffic every
// superstep; the probe vertices (v%5 == 0) receive some after a
// superstep with s%3 == 0, none after s%3 == 1 and more after
// s%3 == 2, so an inbox fills, empties and outgrows its old size.
func inboxSends(n, s int, u graph.VertexID) []targeted[int64] {
	r := rand.New(rand.NewPCG(uint64(s), uint64(u)))
	var out []targeted[int64]
	send := func(d int) {
		m := int64(s)<<40 | int64(u)<<20 | int64(len(out))
		out = append(out, targeted[int64]{dst: graph.VertexID(d), msg: m})
	}
	for k := r.IntN(4); k > 0; k-- {
		if d := r.IntN(n); d%5 != 0 {
			send(d)
		} else {
			send((d + 1) % n)
		}
	}
	probes := []int{r.IntN(2), 0, 1 + r.IntN(3)}[s%3]
	for ; probes > 0; probes-- {
		send(5 * r.IntN(n/5))
	}
	return out
}

// oracleInboxes replays inboxSends through the append delivery and
// returns every vertex's inbox at every superstep, for the partitioning
// e ran with.
func oracleInboxes(e *Engine[int64], steps int) [][][]int64 {
	n := e.G.NumVertices()
	all := make([][][]int64, steps)
	inbox := make([][]int64, n)
	for s := range all {
		all[s] = inbox
		next := make([][]int64, n)
		for dw := range e.byPart {
			for _, part := range e.byPart {
				var dsts []graph.VertexID
				folded := map[graph.VertexID]int64{}
				for _, u := range part {
					for _, t := range inboxSends(n, s, u) {
						if int(e.partOf[t.dst]) != dw {
							continue
						}
						if e.Combiner == nil {
							next[t.dst] = append(next[t.dst], t.msg)
						} else if old, ok := folded[t.dst]; ok {
							folded[t.dst] = e.Combiner(old, t.msg)
						} else {
							folded[t.dst] = t.msg
							dsts = append(dsts, t.dst)
						}
					}
				}
				slices.Sort(dsts) // ascending vertex id is ascending local index
				for _, v := range dsts {
					next[v] = append(next[v], folded[v])
				}
			}
		}
		inbox = next
	}
	return all
}

// TestDeliverMatchesOracle runs random multi-superstep send patterns
// through the engine, with and without a combiner, and checks every
// vertex's messages of every superstep against the oracle element for
// element. The vertex program reverses its messages in place and
// appends to them, which must not reach another vertex's messages.
func TestDeliverMatchesOracle(t *testing.T) {
	g := lineGraph(t, 200)
	n := g.NumVertices()
	// Non-commutative, so a fold in the wrong order shows too.
	combiner := func(a, b int64) int64 { return a*31 + b }
	for _, combine := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("combine=%t/workers=%d", combine, workers), func(t *testing.T) {
				e := &Engine[int64]{G: g, Workers: workers, MaxSupersteps: inboxSteps}
				if combine {
					e.Combiner = combiner
				}
				got := make([][][]int64, inboxSteps)
				for s := range got {
					got[s] = make([][]int64, n)
				}
				compute := func(c *VCtx[int64], v graph.VertexID, msgs []int64) {
					s := c.Superstep()
					got[s][v] = slices.Clone(msgs)
					slices.Reverse(msgs)
					_ = append(msgs, -1)
					for _, t := range inboxSends(n, s, v) {
						c.Send(t.dst, t.msg)
					}
				}
				if err := e.Run(context.Background(), compute, nil); err != nil {
					t.Fatal(err)
				}
				want := oracleInboxes(e, inboxSteps)
				for s := range want {
					for v := range want[s] {
						w, gv := want[s][v], got[s][v]
						if len(w) == 0 && len(gv) != 0 {
							t.Fatalf("superstep %d vertex %d: %d messages, oracle none", s, v, len(gv))
						}
						if !slices.Equal(gv, w) {
							t.Fatalf("superstep %d vertex %d: messages %v, oracle %v", s, v, gv, w)
						}
					}
				}
				// One combining worker delivers at most one message a vertex.
				if !(combine && workers == 1) && !fillEmptyOutgrow(want) {
					t.Fatal("no vertex received messages, then none, then more than before")
				}
			})
		}
	}
}

// fillEmptyOutgrow reports whether some vertex received messages in
// one superstep, none in the next and more in the one after.
func fillEmptyOutgrow(inboxes [][][]int64) bool {
	for s := 0; s+2 < len(inboxes); s++ {
		for v, msgs := range inboxes[s] {
			if len(msgs) > 0 && len(inboxes[s+1][v]) == 0 && len(inboxes[s+2][v]) > len(msgs) {
				return true
			}
		}
	}
	return false
}

// TestSendToAllNeighborsNoAllocs checks that on a directed graph, where
// N(v) merges the in- and out-lists, SendToAllNeighbors builds N(v) in
// the context's scratch buffer: once warm, a call allocates nothing.
// The combiner keeps Send itself from growing an outbox.
func TestSendToAllNeighborsNoAllocs(t *testing.T) {
	b := graph.NewBuilder(graph.Directed(true), graph.WithReverse())
	for i := graph.VertexID(1); i < 64; i++ {
		b.AddEdgeID(0, i)
		b.AddEdgeID(i+64, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine[int64]{G: g, Workers: 1, Combiner: func(a, b int64) int64 { return a + b }}
	allocs := -1.0
	compute := func(c *VCtx[int64], v graph.VertexID, msgs []int64) {
		if v == 0 && c.Superstep() == 0 {
			allocs = testing.AllocsPerRun(50, func() { c.SendToAllNeighbors(0, 1) })
		}
		c.VoteToHalt(v)
	}
	if err := e.Run(context.Background(), compute, nil); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("SendToAllNeighbors: %v allocations per call, want 0", allocs)
	}
}

// TestStatsMsgPacked pins the LCC message's layout: every outbox and
// inbox entry of STATS and LCC carries one.
func TestStatsMsgPacked(t *testing.T) {
	if s := unsafe.Sizeof(statsMsg{}); s > 40 {
		t.Errorf("sizeof(statsMsg) = %d bytes, want <= 40", s)
	}
}

// BenchmarkDeliver runs the two programs that deliver the most
// messages, LCC (a neighbourhood announcement and a reply per arc) and
// CD (a vote per arc per round), on a 2 500 person Datagen graph. Each
// fails if its output differs from the reference implementation.
func BenchmarkDeliver(b *testing.B) {
	g, err := datagen.Generate(datagen.Config{Persons: 2500, Seed: 1, Name: "social-2500"})
	if err != nil {
		b.Fatal(err)
	}
	params := algo.Params{}.WithDefaults(g.NumVertices())
	l, err := New(Options{}).LoadGraph(g)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	for _, c := range []struct {
		kind algo.Kind
		want any
	}{
		{algo.LCC, algo.RunLCC(g)},
		{algo.CD, algo.RunCD(g, params)},
	} {
		b.Run(string(c.kind), func(b *testing.B) {
			var res *platform.Result
			for i := 0; i < b.N; i++ {
				if res, err = l.Run(context.Background(), c.kind, params); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if !reflect.DeepEqual(res.Output, c.want) {
				b.Fatalf("%s output differs from the reference", c.kind)
			}
		})
	}
}
