package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
)

// oracleSort is the comparison sort the shuffle used before the radix
// pass: key ascending, then value bytes ascending. sortEntries must
// produce the same sequence.
func oracleSort(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Key != recs[j].Key {
			return recs[i].Key < recs[j].Key
		}
		return oracleCompareBytes(recs[i].Value, recs[j].Value) < 0
	})
}

func oracleCompareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// randomRecords draws n records whose keys and values stress the sort:
// negative keys, the int64 extremes, keys that differ only in their high
// bytes, empty values, duplicate records and values that are prefixes
// of one another.
func randomRecords(r *rand.Rand, n int) []Record {
	keys := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for b := 8; b < 64; b += 8 {
		keys = append(keys, 1<<b, -(1 << b), 1<<b|1, 3<<b)
	}
	values := [][]byte{nil, {}, {0}, {0, 0}, {1}, {1, 2}, {1, 2, 3}, {255}, {255, 0}}
	recs := make([]Record, 0, n)
	for len(recs) < n {
		var rec Record
		switch r.Intn(4) {
		case 0:
			rec.Key = keys[r.Intn(len(keys))]
		case 1:
			rec.Key = int64(r.Intn(64)) - 32
		case 2:
			rec.Key = int64(r.Uint64())
		default:
			rec.Key = int64(r.Intn(4)) << (8 * (1 + r.Intn(7))) // high bytes only
		}
		if r.Intn(2) == 0 {
			rec.Value = values[r.Intn(len(values))]
		} else {
			rec.Value = make([]byte, r.Intn(5))
			for i := range rec.Value {
				rec.Value[i] = byte(r.Intn(3))
			}
		}
		recs = append(recs, rec)
		if r.Intn(8) == 0 && len(recs) < n { // an exact duplicate
			recs = append(recs, rec)
		}
	}
	return recs
}

func TestSortEntriesMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 17, 256, 1000, 5000} {
		for trial := 0; trial < 20; trial++ {
			recs := randomRecords(r, n)
			// Frame the records into three buffers, the way three
			// mappers would spill them, and index them with entries.
			bufs := make([][]byte, 3)
			for i, rec := range recs {
				bufs[i%3] = appendRecord(bufs[i%3], rec.Key, rec.Value)
			}
			var es []entry
			for b, buf := range bufs {
				for off := 0; off < len(buf); {
					var e entry
					e, off = readEntry(buf, off, b)
					es = append(es, e)
				}
			}
			got := sortEntries(es, make([]entry, 0, len(es)), bufs)

			want := append([]Record(nil), recs...)
			oracleSort(want)
			if len(got) != len(want) {
				t.Fatalf("n=%d: %d entries sorted, want %d", n, len(got), len(want))
			}
			for i := range want {
				if got[i].key != want[i].Key || !bytes.Equal(got[i].value(bufs), want[i].Value) {
					t.Fatalf("n=%d trial %d: position %d is (%d, %v), want (%d, %v)",
						n, trial, i, got[i].key, got[i].value(bufs), want[i].Key, want[i].Value)
				}
			}
		}
	}
}

// TestReduceSeesSortedGroups runs a job whose mappers scatter records
// over negative, extreme and colliding keys: at every worker count each
// reducer must see its keys in ascending order and every group's values
// in ascending byte order, and the job output must not depend on the
// worker count.
func TestReduceSeesSortedGroups(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	input := randomRecords(r, 2000)
	want := map[int64][][]byte{}
	for _, rec := range input {
		want[rec.Key] = append(want[rec.Key], rec.Value, append([]byte{9}, rec.Value...))
	}

	var first []Record
	for _, workers := range []int{1, 2, 3, 8} {
		var mu sync.Mutex
		lastKey := map[*TaskCtx]int64{}
		var bad []string
		job := Job{
			Name: "scatter",
			Map: func(tc *TaskCtx, r Record, emit Emit) {
				emit(r.Key, r.Value)
				emit(r.Key, append([]byte{9}, r.Value...))
			},
			Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
				mu.Lock()
				if last, ok := lastKey[tc]; ok && last >= key {
					bad = append(bad, fmt.Sprintf("key %d after %d", key, last))
				}
				lastKey[tc] = key
				mu.Unlock()
				var out []byte
				for i, v := range values {
					if i > 0 && bytes.Compare(values[i-1], v) > 0 {
						mu.Lock()
						bad = append(bad, fmt.Sprintf("key %d: value %v after %v", key, v, values[i-1]))
						mu.Unlock()
					}
					out = appendRecord(out, 0, v)
				}
				emit(key, out)
			},
		}
		c := &Cluster{Workers: workers}
		res, err := c.Run(context.Background(), input, job)
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) > 0 {
			t.Fatalf("workers=%d: %d ordering violations, first: %s", workers, len(bad), bad[0])
		}
		if len(res.Output) != len(want) {
			t.Fatalf("workers=%d: %d groups, want %d", workers, len(res.Output), len(want))
		}
		for i, rec := range res.Output {
			if i > 0 && res.Output[i-1].Key >= rec.Key {
				t.Fatalf("workers=%d: output key %d after %d", workers, rec.Key, res.Output[i-1].Key)
			}
			vals := append([][]byte(nil), want[rec.Key]...)
			sort.Slice(vals, func(i, j int) bool { return bytes.Compare(vals[i], vals[j]) < 0 })
			var exp []byte
			for _, v := range vals {
				exp = appendRecord(exp, 0, v)
			}
			if !bytes.Equal(rec.Value, exp) {
				t.Fatalf("workers=%d: key %d reduced the wrong values", workers, rec.Key)
			}
		}
		if first == nil {
			first = res.Output
		} else if !reflect.DeepEqual(first, res.Output) {
			t.Fatalf("workers=%d: output differs from workers=1", workers)
		}
	}
}

// TestClusterReuseMatchesFreshClusters runs a 30-job BFS chain on one
// Cluster, which reuses its spill buffers and sort scratch from job to
// job, and the same chain with a fresh Cluster per job: every job's
// output and counters must match.
func TestClusterReuseMatchesFreshClusters(t *testing.T) {
	const n = 30
	b := graph.NewBuilder(graph.Directed(true), graph.WithReverse())
	b.SetNumVertices(n)
	r := rand.New(rand.NewSource(5))
	for v := 0; v+1 < n; v++ {
		b.AddEdgeID(graph.VertexID(v), graph.VertexID(v+1))
		for k := 0; k < 3; k++ { // back edges: more records, same depths
			b.AddEdgeID(graph.VertexID(v+1), graph.VertexID(r.Intn(v+1)))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Outputs are compared once the whole chain has run, so a later job
	// overwriting an earlier job's output shows as well.
	job := bfsJob()
	reused := &Cluster{Workers: 3}
	var got, want []*JobResult
	in1, in2 := bfsInput(g, 0), bfsInput(g, 0)
	for i := 0; i < n; i++ {
		res1, err := reused.Run(context.Background(), in1, job)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := (&Cluster{Workers: 3}).Run(context.Background(), in2, job)
		if err != nil {
			t.Fatal(err)
		}
		got, want = append(got, res1), append(want, res2)
		in1, in2 = res1.Output, res2.Output
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Output, want[i].Output) {
			t.Fatalf("job %d: reused cluster output differs from a fresh cluster's", i+1)
		}
		if !reflect.DeepEqual(got[i].Counters, want[i].Counters) {
			t.Fatalf("job %d: counters %v, fresh cluster %v", i+1, got[i].Counters, want[i].Counters)
		}
		wantUpdates := int64(1) // one new level per job, none in the last
		if i == n-1 {
			wantUpdates = 0
		}
		if got[i].Counters["updates"] != wantUpdates {
			t.Fatalf("job %d: updates = %d, want %d", i+1, got[i].Counters["updates"], wantUpdates)
		}
	}
	if reused.Counters.Supersteps != n {
		t.Fatalf("reused cluster ran %d jobs, want %d", reused.Counters.Supersteps, n)
	}
}

// TestMaxJobsCapIsAnError runs the iterative job chains on a 10-vertex
// directed path, where BFS, CONN and SSSP need ten jobs to converge and
// EVO's fire (seed 25) burns for eight levels: cut off at three jobs
// they must fail naming the algorithm and the cap, never return the
// partial state; at the default cap they must match the reference.
func TestMaxJobsCapIsAnError(t *testing.T) {
	b := graph.NewBuilder(graph.Directed(true), graph.WithReverse())
	for v := 0; v+1 < 10; v++ {
		b.AddEdgeID(graph.VertexID(v), graph.VertexID(v+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	params := algo.Params{Source: 0}.WithDefaults(g.NumVertices())
	evoParams := algo.Params{Seed: 25, EvoPForward: 0.9}.WithDefaults(g.NumVertices())
	cases := []struct {
		kind   algo.Kind
		params algo.Params
		ref    any
	}{
		{algo.BFS, params, algo.RunBFS(g, 0)},
		{algo.CONN, params, algo.RunConn(g)},
		{algo.SSSP, params, algo.RunSSSP(g, 0)},
		{algo.EVO, evoParams, algo.RunEvo(g, evoParams)},
	}
	for _, tc := range cases {
		t.Run(string(tc.kind), func(t *testing.T) {
			capped, _ := New(Options{MaxJobs: 3, RoundOverhead: -1}).LoadGraph(g)
			res, err := capped.Run(context.Background(), tc.kind, tc.params)
			if err == nil {
				t.Fatalf("MaxJobs=3 returned %v and no error", res.Output)
			}
			if msg := err.Error(); !strings.Contains(msg, string(tc.kind)) || !strings.Contains(msg, "MaxJobs=3") {
				t.Fatalf("error %q does not name %s and the cap", msg, tc.kind)
			}

			full, _ := fast().LoadGraph(g)
			res, err = full.Run(context.Background(), tc.kind, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Output, tc.ref) {
				t.Fatalf("default cap: got %v, want %v", res.Output, tc.ref)
			}
		})
	}
}
