package platformtest

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/dataflow"
	"graphalytics/internal/platform/graphdb"
	"graphalytics/internal/platform/mapreduce"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const countersGolden = "testdata/engine_counters.golden"

// TestGoldenEngineCounters pins the work counters every engine reports
// for every workload on every conformance graph: supersteps, messages,
// edges traversed and active vertices per superstep. They repeat exactly
// for a given graph, seed and worker count, so a change that alters how
// much work an engine does — a buffer-reuse bug, a lost message, a
// changed iteration count — shows up as a diff here even when the output
// still validates. Timing-dependent fields (WorkerBusy) and memory
// accounting are left out. A change that means to alter the counters
// regenerates the file with
//
//	go test ./internal/platform/platformtest -run TestGoldenEngineCounters -update
//
// and says why in its description.
func TestGoldenEngineCounters(t *testing.T) {
	const workers = 2
	platforms := []platform.Platform{
		pregel.New(pregel.Options{Workers: workers}),
		mapreduce.New(mapreduce.Options{Workers: workers, RoundOverhead: -1}),
		dataflow.New(dataflow.Options{Parts: workers}),
		graphdb.New(graphdb.Options{}),
	}
	var b strings.Builder
	for _, p := range platforms {
		for _, g := range Graphs(t) {
			loaded, err := p.LoadGraph(g)
			if err != nil {
				t.Fatalf("%s: LoadGraph %s: %v", p.Name(), g.Name(), err)
			}
			for _, spec := range workload.All() {
				if spec.Supports(g) != nil {
					continue
				}
				res, err := loaded.Run(context.Background(), spec.Kind, suiteParams(g))
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", p.Name(), g.Name(), spec.Kind, err)
				}
				c := res.Counters
				active := make([]string, len(c.ActivePerStep))
				for i, n := range c.ActivePerStep {
					active[i] = fmt.Sprint(n)
				}
				fmt.Fprintf(&b, "%s %s %s supersteps=%d messages=%d edges=%d active=[%s]\n",
					p.Name(), g.Name(), spec.Kind, c.Supersteps, c.Messages, c.EdgesTraversed,
					strings.Join(active, " "))
			}
			loaded.Close()
		}
	}
	got := b.String()

	if *update {
		if err := os.MkdirAll(filepath.Dir(countersGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countersGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d counter lines, golden file has %d", len(gotLines), len(wantLines))
	}
	diffs := 0
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if gotLines[i] != wantLines[i] {
			if diffs++; diffs <= 10 {
				t.Errorf("counters changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
			}
		}
	}
	if diffs > 10 {
		t.Errorf("... %d changed lines in all", diffs)
	}
}

// TestCountersBelongToTheCell runs every workload of every engine three
// ways on one graph: on a fresh load, again after STATS and LCC on the
// same load, and (engines that run jobs concurrently) beside LCC on the
// same load. Every counter but WorkerBusy, a timing, must be the same
// all three times: peak memory and page-cache counts describe the cell,
// not what ran before it or beside it.
func TestCountersBelongToTheCell(t *testing.T) {
	const workers = 2
	platforms := []platform.Platform{
		pregel.New(pregel.Options{Workers: workers}),
		mapreduce.New(mapreduce.Options{Workers: workers, RoundOverhead: -1}),
		dataflow.New(dataflow.Options{Parts: workers}),
		graphdb.New(graphdb.Options{}),
	}
	g := Graphs(t)[5] // the Datagen social graph
	params := suiteParams(g)
	ctx := context.Background()
	run := func(l platform.Loaded, kind algo.Kind) platform.Counters {
		t.Helper()
		res, err := l.Run(ctx, kind, params)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		c := res.Counters
		c.WorkerBusy = nil
		return c
	}
	for _, p := range platforms {
		for _, kind := range algo.Kinds {
			fresh, err := p.LoadGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			want := run(fresh, kind)
			run(fresh, algo.STATS)
			run(fresh, algo.LCC)
			if got := run(fresh, kind); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s after STATS and LCC:\n got  %+v\n want %+v", p.Name(), kind, got, want)
			}
			if platform.ConcurrencyLimitOf(p) == 0 {
				beside := make(chan error)
				go func() {
					_, err := fresh.Run(ctx, algo.LCC, params)
					beside <- err
				}()
				got := run(fresh, kind)
				if err := <-beside; err != nil {
					t.Fatalf("%s LCC beside %s: %v", p.Name(), kind, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s beside LCC:\n got  %+v\n want %+v", p.Name(), kind, got, want)
				}
			}
			fresh.Close()
		}
	}
}
