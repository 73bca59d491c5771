package graphalytics_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphalytics"
	"graphalytics/internal/algo"
	"graphalytics/internal/core"
	"graphalytics/internal/telemetry"
)

// chromeEvent mirrors the trace_event fields the telemetry sink emits.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// TestCampaignTraceGolden runs a small campaign with the process-wide
// tracer enabled — the same path `graphalytics -trace out.json` takes —
// and asserts the emitted file is a valid Chrome trace: parseable JSON,
// complete "X" events only, monotonically ordered, and covering the
// scheduler, cell-phase, and ingest-stage span categories.
func TestCampaignTraceGolden(t *testing.T) {
	// A small edge file loaded with 2 ingest workers exercises the
	// parallel ingest pipeline (parse-edges / intern / build-csr spans).
	dir := t.TempDir()
	epath := filepath.Join(dir, "g.e")
	var ebuf bytes.Buffer
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&ebuf, "%d %d\n", i, (i+1)%200)
	}
	if err := os.WriteFile(epath, ebuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	telemetry.StartTrace(&trace)

	g, err := graphalytics.LoadGraphOpts(epath, "", graphalytics.LoadOptions{Workers: 2})
	if err != nil {
		telemetry.StopTrace()
		t.Fatal(err)
	}
	bench := &core.Benchmark{
		Platforms:       []graphalytics.Platform{graphalytics.NewPregel(graphalytics.PregelOptions{})},
		Graphs:          []*graphalytics.Graph{g},
		Algorithms:      []algo.Kind{algo.BFS, algo.CONN},
		Validate:        true,
		MonitorInterval: time.Millisecond,
		Parallelism:     2,
		Warmup:          1,
		Reps:            2,
	}
	rep, err := bench.Run(context.Background())
	if err != nil {
		telemetry.StopTrace()
		t.Fatal(err)
	}
	if err := telemetry.StopTrace(); err != nil {
		t.Fatalf("StopTrace: %v", err)
	}

	var events []chromeEvent
	if err := json.Unmarshal(trace.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, trace.Bytes())
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}

	cats := map[string]int{}
	last := -1.0
	for _, e := range events {
		if e.Ph != "X" {
			t.Fatalf("non-complete event: %+v", e)
		}
		if e.Name == "" || e.Cat == "" {
			t.Fatalf("unnamed event: %+v", e)
		}
		if e.Ts < 0 || e.Dur < 0 {
			t.Fatalf("negative ts/dur: %+v", e)
		}
		// Events are written at span End under one mutex, so file order
		// is completion order: end timestamps never decrease.
		if end := e.Ts + e.Dur; end < last-0.002 {
			t.Fatalf("end time went backwards: %v after %v (%+v)", end, last, e)
		} else if end > last {
			last = end
		}
		cats[e.Cat]++
	}
	for _, want := range []string{"sched", "cell", "ingest"} {
		if cats[want] == 0 {
			t.Errorf("no %q spans in trace; categories: %v", want, cats)
		}
	}

	// The cell phases the campaign ran must appear by name prefix.
	names := map[string]bool{}
	for _, e := range events {
		names[e.Name] = true
	}
	for _, prefix := range []string{"load:", "warmup:", "rep:", "reference:", "validate:"} {
		found := false
		for n := range names {
			if len(n) >= len(prefix) && n[:len(prefix)] == prefix {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %q cell span in trace", prefix)
		}
	}

	// The monitored campaign must carry a resource envelope per cell.
	for _, r := range rep.Results {
		if r.Resources == nil {
			t.Fatalf("cell %s/%s/%s has no resource envelope", r.Platform, r.Graph, r.Algorithm)
		}
		if r.Resources.PeakHeapBytes == 0 {
			t.Errorf("cell %s resources have zero peak heap", r.Algorithm)
		}
	}
}
