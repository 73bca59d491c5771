package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func noop(context.Context, int) error { return nil }

func TestDependencyOrderRespected(t *testing.T) {
	var mu sync.Mutex
	var order []string
	record := func(id string) func(context.Context, int) error {
		return func(context.Context, int) error {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			return nil
		}
	}
	jobs := []Job{
		{ID: "c", Deps: []string{"a", "b"}, Run: record("c")},
		{ID: "a", Run: record("a")},
		{ID: "b", Deps: []string{"a"}, Run: record("b")},
		{ID: "d", Deps: []string{"c"}, Run: record("d")},
	}
	res, err := Run(context.Background(), jobs, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, dep := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}, {"c", "d"}} {
		if pos[dep[0]] > pos[dep[1]] {
			t.Errorf("%s ran after its dependent %s (order %v)", dep[0], dep[1], order)
		}
	}
}

func TestSequentialIsIndexOrdered(t *testing.T) {
	var order []int
	var jobs []Job
	for i := 0; i < 10; i++ {
		i := i
		jobs = append(jobs, Job{ID: fmt.Sprintf("j%d", i), Run: func(context.Context, int) error {
			order = append(order, i)
			return nil
		}})
	}
	if _, err := Run(context.Background(), jobs, Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential order = %v", order)
		}
	}
}

func TestMalformedDAGs(t *testing.T) {
	cases := []struct {
		name string
		jobs []Job
		want string
	}{
		{"cycle", []Job{
			{ID: "a", Deps: []string{"b"}, Run: noop},
			{ID: "b", Deps: []string{"a"}, Run: noop},
		}, "cycle"},
		{"self-loop", []Job{{ID: "a", Deps: []string{"a"}, Run: noop}}, "itself"},
		{"unknown-dep", []Job{{ID: "a", Deps: []string{"ghost"}, Run: noop}}, "unknown"},
		{"duplicate-id", []Job{{ID: "a", Run: noop}, {ID: "a", Run: noop}}, "duplicate"},
		{"empty-id", []Job{{Run: noop}}, "empty ID"},
		{"nil-run", []Job{{ID: "a"}}, "nil Run"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(context.Background(), c.jobs, Options{})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

func TestParallelismBound(t *testing.T) {
	const bound = 3
	var cur, peak atomic.Int64
	var jobs []Job
	for i := 0; i < 30; i++ {
		jobs = append(jobs, Job{ID: fmt.Sprintf("j%d", i), Run: func(context.Context, int) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		}})
	}
	if _, err := Run(context.Background(), jobs, Options{Parallelism: bound}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > bound {
		t.Errorf("observed %d concurrent jobs, bound %d", p, bound)
	}
}

func TestClassLimits(t *testing.T) {
	var serialCur, serialPeak atomic.Int64
	var jobs []Job
	for i := 0; i < 20; i++ {
		class := "free"
		if i%2 == 0 {
			class = "serial"
		}
		jobs = append(jobs, Job{ID: fmt.Sprintf("j%d", i), Class: class, Run: func(context.Context, int) error {
			if class == "serial" {
				n := serialCur.Add(1)
				for {
					p := serialPeak.Load()
					if n <= p || serialPeak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				serialCur.Add(-1)
			}
			return nil
		}})
	}
	res, err := Run(context.Background(), jobs, Options{
		Parallelism: 8,
		ClassLimits: map[string]int{"serial": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 20 {
		t.Fatalf("results = %d", len(res))
	}
	if p := serialPeak.Load(); p > 1 {
		t.Errorf("class limit violated: %d concurrent serial jobs", p)
	}
}

func TestRetryTransientFailure(t *testing.T) {
	var calls atomic.Int64
	transient := errors.New("flaky")
	jobs := []Job{{ID: "flaky", Run: func(_ context.Context, attempt int) error {
		calls.Add(1)
		if attempt < 3 {
			return transient
		}
		return nil
	}}}
	res, err := Run(context.Background(), jobs, Options{
		Parallelism: 1,
		Retry: RetryPolicy{
			MaxAttempts: 3,
			Retryable:   func(err error) bool { return errors.Is(err, transient) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res["flaky"]
	if r.Status != Done || r.Attempts != 3 || calls.Load() != 3 {
		t.Errorf("result = %+v, calls = %d", r, calls.Load())
	}
}

func TestTerminalErrorNotRetried(t *testing.T) {
	var calls atomic.Int64
	terminal := errors.New("oom")
	jobs := []Job{{ID: "dies", Run: func(context.Context, int) error {
		calls.Add(1)
		return terminal
	}}}
	res, err := Run(context.Background(), jobs, Options{
		Retry: RetryPolicy{
			MaxAttempts: 5,
			Retryable:   func(err error) bool { return !errors.Is(err, terminal) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := res["dies"]
	if r.Status != Failed || calls.Load() != 1 {
		t.Errorf("result = %+v, calls = %d", r, calls.Load())
	}
}

func TestDependentsOfFailureSkipped(t *testing.T) {
	boom := errors.New("boom")
	ran := map[string]bool{}
	var mu sync.Mutex
	mark := func(id string) func(context.Context, int) error {
		return func(context.Context, int) error {
			mu.Lock()
			ran[id] = true
			mu.Unlock()
			return nil
		}
	}
	jobs := []Job{
		{ID: "load", Run: func(context.Context, int) error { return boom }},
		{ID: "run1", Deps: []string{"load"}, Run: mark("run1")},
		{ID: "run2", Deps: []string{"run1"}, Run: mark("run2")},
		{ID: "other", Run: mark("other")},
	}
	res, err := Run(context.Background(), jobs, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res["load"].Status != Failed {
		t.Errorf("load = %+v", res["load"])
	}
	for _, id := range []string{"run1", "run2"} {
		r := res[id]
		if r.Status != SkippedDep {
			t.Errorf("%s status = %s, want skipped-dep", id, r.Status)
		}
		if !errors.Is(r.Err, boom) {
			t.Errorf("%s err = %v, want wrapped boom", id, r.Err)
		}
		if ran[id] {
			t.Errorf("%s ran despite failed dependency", id)
		}
	}
	if res["other"].Status != Done || !ran["other"] {
		t.Errorf("independent job affected by failure: %+v", res["other"])
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, []Job{{ID: "a", Run: noop}}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}

	// Mid-campaign cancellation drains and reports the context error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var jobs []Job
	for i := 0; i < 50; i++ {
		jobs = append(jobs, Job{ID: fmt.Sprintf("j%d", i), Run: func(c context.Context, _ int) error {
			cancel2()
			<-c.Done()
			return c.Err()
		}})
	}
	if _, err := Run(ctx2, jobs, Options{Parallelism: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-campaign err = %v", err)
	}
}

// TestManyJobsRace is a stress shape for the -race detector: a wide
// diamond DAG with shared counters.
func TestManyJobsRace(t *testing.T) {
	var total atomic.Int64
	jobs := []Job{{ID: "root", Run: noop}}
	for i := 0; i < 200; i++ {
		jobs = append(jobs, Job{
			ID:   fmt.Sprintf("mid%d", i),
			Deps: []string{"root"},
			Run:  func(context.Context, int) error { total.Add(1); return nil },
		})
	}
	var deps []string
	for i := 0; i < 200; i++ {
		deps = append(deps, fmt.Sprintf("mid%d", i))
	}
	jobs = append(jobs, Job{ID: "sink", Deps: deps, Run: noop})
	res, err := Run(context.Background(), jobs, Options{Parallelism: 16})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 200 || len(res) != 202 {
		t.Fatalf("total = %d, results = %d", total.Load(), len(res))
	}
	if res["sink"].Status != Done {
		t.Errorf("sink = %+v", res["sink"])
	}
}
