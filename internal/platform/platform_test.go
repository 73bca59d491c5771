package platform

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
)

func TestMemoryTrackerBudget(t *testing.T) {
	tr := NewMemoryTracker("test", 100)
	if err := tr.Alloc(60); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := tr.Alloc(50)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over budget err = %v", err)
	}
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatal("error should be *OOMError")
	}
	if oom.Platform != "test" || oom.Need != 110 || oom.Budget != 100 {
		t.Errorf("oom = %+v", oom)
	}
	if oom.Error() == "" {
		t.Error("empty error string")
	}
}

func TestMemoryTrackerPeakAndFree(t *testing.T) {
	tr := NewMemoryTracker("test", 100)
	tr.Alloc(70)
	tr.Alloc(30)
	tr.Free(50)
	if tr.Peak() != 100 {
		t.Errorf("peak = %d", tr.Peak())
	}
	// Free gave 50 bytes back: 50 more fit the budget without raising
	// the peak, and one byte more does not fit.
	if err := tr.Alloc(50); err != nil || tr.Peak() != 100 {
		t.Errorf("refill after free: err %v, peak %d", err, tr.Peak())
	}
	var oom *OOMError
	if err := tr.Alloc(1); !errors.As(err, &oom) || oom.Need != 101 {
		t.Errorf("one byte over: %v", err)
	}
}

func TestMemoryTrackerConcurrent(t *testing.T) {
	const workers, size = 8, 3
	tr := NewMemoryTracker("test", workers*size)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if err := tr.Alloc(size); err != nil {
					t.Errorf("never more than the budget is live: %v", err)
				}
				tr.Free(size)
			}
		}()
	}
	wg.Wait()
	if tr.Peak() < size || tr.Peak() > workers*size {
		t.Errorf("peak = %d", tr.Peak())
	}
	// Balanced: the whole budget is free again.
	if err := tr.Alloc(workers * size); err != nil {
		t.Errorf("after balanced alloc/free: %v", err)
	}
}

// TestLoadedGraphRun checks the run scope: each run's peak is the
// resident bytes plus its own peak, the budget holds against that sum,
// and finish runs whether the kernel fails or not.
func TestLoadedGraphRun(t *testing.T) {
	b := graph.NewBuilder()
	b.AddEdgeID(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	finished := 0
	l := &LoadedGraph[*MemoryTracker]{
		G: g, Platform: "test", Budget: 150, Resident: 100,
		NewRun: func(mem *MemoryTracker, _ *Counters) (*MemoryTracker, func()) {
			return mem, func() { finished++ }
		},
		Kernels: map[algo.Kind]Kernel[*MemoryTracker]{
			algo.CONN: func(mem *MemoryTracker, _ context.Context, _ algo.Params) (any, error) {
				err := mem.Alloc(40)
				mem.Free(40)
				return algo.ConnOutput{0, 0}, err
			},
			algo.BFS: func(mem *MemoryTracker, _ context.Context, _ algo.Params) (any, error) {
				return nil, mem.Alloc(60)
			},
		},
	}
	for i := 0; i < 2; i++ { // the second run reports its own peak, not the first's
		res, err := l.Run(context.Background(), algo.CONN, algo.Params{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.PeakMemoryBytes != 140 {
			t.Errorf("run %d: peak %d, want resident 100 + 40", i, res.Counters.PeakMemoryBytes)
		}
	}
	if _, err := l.Run(context.Background(), algo.BFS, algo.Params{}); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("resident + run over budget: %v", err)
	}
	if finished != 3 {
		t.Errorf("finish ran %d times, want 3", finished)
	}
}

func TestCountersMerge(t *testing.T) {
	a := Counters{
		Supersteps: 2, Messages: 10, MessageBytes: 100, NetworkBytes: 40,
		SpilledBytes: 5, PeakMemoryBytes: 1000, EdgesTraversed: 7,
		CacheHits: 3, CacheMisses: 1,
		ActivePerStep: []int64{5, 3},
		WorkerBusy:    []time.Duration{time.Second},
	}
	b := Counters{
		Supersteps: 1, Messages: 5, MessageBytes: 50, NetworkBytes: 10,
		SpilledBytes: 2, PeakMemoryBytes: 2000, EdgesTraversed: 3,
		CacheHits: 1, CacheMisses: 2,
		ActivePerStep: []int64{2},
		WorkerBusy:    []time.Duration{time.Second, 2 * time.Second},
	}
	a.Merge(b)
	if a.Supersteps != 3 || a.Messages != 15 || a.MessageBytes != 150 {
		t.Errorf("sums wrong: %+v", a)
	}
	if a.PeakMemoryBytes != 2000 {
		t.Errorf("peak should take max: %d", a.PeakMemoryBytes)
	}
	if len(a.ActivePerStep) != 3 {
		t.Errorf("ActivePerStep = %v", a.ActivePerStep)
	}
	if len(a.WorkerBusy) != 2 || a.WorkerBusy[0] != 2*time.Second || a.WorkerBusy[1] != 2*time.Second {
		t.Errorf("WorkerBusy = %v", a.WorkerBusy)
	}
	if a.CacheHits != 4 || a.CacheMisses != 3 {
		t.Errorf("cache counters: %+v", a)
	}
}

func TestCheckContext(t *testing.T) {
	if err := CheckContext(context.Background()); err != nil {
		t.Errorf("live context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := CheckContext(ctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context err = %v", err)
	}
}
