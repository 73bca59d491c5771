package mapreduce

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/platformtest"
	"graphalytics/internal/workload"
)

// fast returns a platform with no per-job scheduling overhead, for tests.
func fast() *Platform { return New(Options{RoundOverhead: -1}) }

func TestConformance(t *testing.T) {
	platformtest.Conformance(t, fast())
}

func TestConformanceSingleWorker(t *testing.T) {
	platformtest.Conformance(t, New(Options{Workers: 1, RoundOverhead: -1}))
}

// TestOutputsSameBitsAtEveryWorkerCount runs every workload at Workers
// 1, 2, 3 and 8 on every conformance graph. Every output must be
// bit-identical to the single-worker run: a key's values reach the
// reducer in emission order, which is the same at every worker count.
// Each workload runs on one load shared by the whole sweep, after the other
// workloads have run on it and beside another run on it, so it reuses
// a chain from the load's free list or builds a second one; a run on a
// fresh load must give the same output.
func TestOutputsSameBitsAtEveryWorkerCount(t *testing.T) {
	ctx := context.Background()
	for _, g := range platformtest.Graphs(t) {
		params := algo.Params{Source: 0, Seed: 99, EvoNewVertices: 6}.WithDefaults(g.NumVertices())
		var kinds []algo.Kind
		for _, spec := range workload.All() {
			if spec.Supports(g) == nil {
				kinds = append(kinds, spec.Kind)
			}
		}
		base := map[algo.Kind]any{}
		for _, w := range []int{1, 2, 3, 8} {
			p := New(Options{Workers: w, RoundOverhead: -1})
			shared, err := p.LoadGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range kinds {
				beside := make(chan error)
				go func() {
					_, err := shared.Run(ctx, algo.LCC, params)
					beside <- err
				}()
				res, err := shared.Run(ctx, kind, params)
				if berr := <-beside; berr != nil {
					t.Fatalf("%s workers=%d LCC beside %s: %v", g.Name(), w, kind, berr)
				}
				if err != nil {
					t.Fatalf("%s workers=%d %s: %v", g.Name(), w, kind, err)
				}
				fresh, err := p.LoadGraph(g)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Run(ctx, kind, params)
				if err != nil {
					t.Fatalf("%s workers=%d %s on a fresh load: %v", g.Name(), w, kind, err)
				}
				if !reflect.DeepEqual(res.Output, want.Output) {
					t.Errorf("%s workers=%d %s: a run on a shared load differs from a fresh load's", g.Name(), w, kind)
				}
				if w == 1 {
					base[kind] = want.Output
				} else if !reflect.DeepEqual(want.Output, base[kind]) {
					t.Errorf("%s %s: workers=%d output is not bit-identical to workers=1", g.Name(), kind, w)
				}
			}
		}
	}
}

func TestCountersPopulated(t *testing.T) {
	platformtest.CountersPopulated(t, fast())
}

func TestName(t *testing.T) {
	if fast().Name() != "mapreduce" {
		t.Error("name")
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, 42, []byte("hello"))
	buf = appendRecord(buf, -7, nil)
	buf = appendRecord(buf, 0, []byte{1, 2, 3})
	bufs := [][]byte{buf}
	e1, off := readEntry(buf, 0, 0)
	e2, off := readEntry(buf, off, 0)
	e3, off := readEntry(buf, off, 0)
	if off != len(buf) {
		t.Fatalf("trailing bytes: %d", len(buf)-off)
	}
	if e1.key != 42 || string(e1.value(bufs)) != "hello" {
		t.Errorf("e1 = %+v", e1)
	}
	if e2.key != -7 || len(e2.value(bufs)) != 0 {
		t.Errorf("e2 = %+v", e2)
	}
	if e3.key != 0 || len(e3.value(bufs)) != 3 {
		t.Errorf("e3 = %+v", e3)
	}
}

func TestVertexListCodec(t *testing.T) {
	lists := [][]uint32{
		{},
		{0},
		{1, 5, 5, 900, 1 << 30},
	}
	for _, l := range lists {
		in := make([]graph.VertexID, len(l))
		for i, x := range l {
			in[i] = graph.VertexID(x)
		}
		buf := appendVertexList(nil, in)
		out, rest := readVertexList(nil, buf)
		if len(rest) != 0 {
			t.Fatalf("trailing bytes for %v", l)
		}
		if len(out) != len(in) {
			t.Fatalf("len %d != %d", len(out), len(in))
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("list %v round-tripped to %v", in, out)
			}
		}
	}
}

func TestWordCount(t *testing.T) {
	// The classic sanity check: the engine is a real general-purpose
	// MapReduce, not a graph-only special case.
	input := []Record{
		{Key: 0, Value: []byte("a b a")},
		{Key: 1, Value: []byte("b a")},
	}
	job := Job{
		Name: "wordcount",
		Map: func(tc *TaskCtx, r Record, emit Emit) {
			word := int64(0)
			for _, ch := range r.Value {
				switch ch {
				case 'a':
					word = 'a'
				case 'b':
					word = 'b'
				default:
					continue
				}
				emit(word, []byte{1})
			}
		},
		Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
			emit(key, []byte{byte(len(values))})
		},
	}
	c := &Cluster{Workers: 3, Counters: &platform.Counters{}}
	res, err := c.Run(context.Background(), input, job)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	for _, r := range res.Output {
		counts[r.Key] = int(r.Value[0])
	}
	if counts['a'] != 3 || counts['b'] != 2 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestJobCounters(t *testing.T) {
	job := Job{
		Name: "counting",
		Map: func(tc *TaskCtx, r Record, emit Emit) {
			tc.Inc("mapped", 1)
			emit(r.Key, r.Value)
		},
		Reduce: func(tc *TaskCtx, key int64, values [][]byte, emit Emit) {
			tc.Inc("reduced", 1)
		},
	}
	c := &Cluster{Workers: 2, Counters: &platform.Counters{}}
	input := []Record{{Key: 1}, {Key: 2}, {Key: 2}}
	res, err := c.Run(context.Background(), input, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters["mapped"] != 3 {
		t.Errorf("mapped = %d", res.Counters["mapped"])
	}
	if res.Counters["reduced"] != 2 {
		t.Errorf("reduced = %d (distinct keys)", res.Counters["reduced"])
	}
}

func TestSpillAccounting(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := fast()
	loaded, _ := p.LoadGraph(g)
	defer loaded.Close()
	res, err := loaded.Run(context.Background(), algo.BFS, algo.Params{Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.SpilledBytes == 0 {
		t.Error("BFS job chain must spill intermediate bytes")
	}
	if c.Supersteps < 2 {
		t.Errorf("expected several jobs, got %d", c.Supersteps)
	}
	// Every iteration rewrites the whole graph: spilled bytes must far
	// exceed the raw adjacency size — the physical reason Figure 4 puts
	// MapReduce orders of magnitude behind the BSP engine.
	if c.SpilledBytes < g.NumArcs()*2 {
		t.Errorf("spill volume %d suspiciously low for %d arcs over %d jobs",
			c.SpilledBytes, g.NumArcs(), c.Supersteps)
	}
}

// TestPeakMemoryIsTheLargestJob runs BFS at two worker counts: a run's
// peak memory is the bytes its largest job holds, so it is at least the
// mean job's spill and output, and, since it counts lengths that do not
// depend on the partitioning, the same at every worker count.
func TestPeakMemoryIsTheLargestJob(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var peaks []int64
	for _, w := range []int{1, 3} {
		loaded, _ := New(Options{Workers: w, RoundOverhead: -1}).LoadGraph(g)
		res, err := loaded.Run(context.Background(), algo.BFS, algo.Params{Source: 0})
		if err != nil {
			t.Fatal(err)
		}
		c := res.Counters
		if c.PeakMemoryBytes < c.SpilledBytes/c.Supersteps {
			t.Errorf("workers=%d: peak %d bytes, below the mean job's %d spilled bytes",
				w, c.PeakMemoryBytes, c.SpilledBytes/c.Supersteps)
		}
		peaks = append(peaks, c.PeakMemoryBytes)
	}
	if peaks[0] != peaks[1] {
		t.Errorf("peak %d bytes at workers=1, %d at workers=3", peaks[0], peaks[1])
	}
}

func TestRoundOverheadPaid(t *testing.T) {
	g, err := datagen.Generate(datagen.Config{Persons: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := New(Options{RoundOverhead: 30 * time.Millisecond})
	loaded, _ := p.LoadGraph(g)
	defer loaded.Close()
	start := time.Now()
	res, err := loaded.Run(context.Background(), algo.CONN, algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	wantMin := time.Duration(res.Counters.Supersteps) * 30 * time.Millisecond
	if elapsed := time.Since(start); elapsed < wantMin {
		t.Errorf("elapsed %v < %d jobs × 30ms", elapsed, res.Counters.Supersteps)
	}
}

func TestContextCancellation(t *testing.T) {
	g, _ := datagen.Generate(datagen.Config{Persons: 1000, Seed: 3})
	p := fast()
	loaded, _ := p.LoadGraph(g)
	defer loaded.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := loaded.Run(ctx, algo.CD, algo.Params{}); err == nil {
		t.Fatal("cancelled context should abort")
	}
}

func TestUnsupportedKind(t *testing.T) {
	g, _ := datagen.Generate(datagen.Config{Persons: 100, Seed: 4})
	loaded, _ := fast().LoadGraph(g)
	defer loaded.Close()
	if _, err := loaded.Run(context.Background(), algo.Kind("XX"), algo.Params{}); !errors.Is(err, platform.ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadNeverFailsOnSize(t *testing.T) {
	// The §3.3 finding: MapReduce handles any workload if given time.
	g, err := datagen.Generate(datagen.Config{Persons: 20000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fast().LoadGraph(g); err != nil {
		t.Fatalf("MapReduce ETL must not fail on size: %v", err)
	}
}
