package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The lowest-index error wins even when higher-index workers fail first.
func TestDoLowestIndexErrorWins(t *testing.T) {
	const n = 8
	release := make(chan struct{})
	var failed atomic.Int32
	err := Do(n, func(i int) error {
		if i == 0 {
			<-release // fail only after every other worker has failed
		}
		if failed.Add(1) == n-1 {
			close(release)
		}
		return fmt.Errorf("worker %d", i)
	})
	if err == nil || err.Error() != "worker 0" {
		t.Fatalf("Do = %v, want worker 0", err)
	}
	if err := Do(n, func(i int) error {
		if i >= 5 {
			return fmt.Errorf("worker %d", i)
		}
		time.Sleep(time.Millisecond)
		return nil
	}); err == nil || err.Error() != "worker 5" {
		t.Fatalf("Do = %v, want worker 5", err)
	}
	if err := Do(0, func(int) error { t.Error("worker ran for n = 0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// Do returns only after every worker has returned, also when one of
// them panicked or failed early.
func TestDoWaitsForEveryWorker(t *testing.T) {
	for _, fault := range []string{"none", "error", "panic"} {
		var done atomic.Int32
		func() {
			defer func() { recover() }()
			Do(6, func(i int) error {
				if i == 0 {
					switch fault {
					case "error":
						return errors.New("early")
					case "panic":
						panic("early")
					}
				}
				time.Sleep(time.Duration(i) * time.Millisecond)
				done.Add(1)
				return nil
			})
		}()
		want := int32(6)
		if fault != "none" {
			want = 5
		}
		if got := done.Load(); got != want {
			t.Errorf("%s: %d workers had returned when Do did, want %d", fault, got, want)
		}
	}
}

func panicsInWorker(i, k int) error {
	if i == k {
		var s []int
		_ = s[i] // index out of range
	}
	return nil
}

// A worker's panic comes back on the caller's goroutine as a *Panic
// carrying the value and the stack of the worker that panicked; with
// several, the lowest index wins, and it wins over any error.
func TestDoReraisesWorkerPanic(t *testing.T) {
	catch := func(fn func()) (v any) {
		defer func() { v = recover() }()
		fn()
		return nil
	}
	v := catch(func() { Do(4, func(i int) error { return panicsInWorker(i, 2) }) })
	p, ok := v.(*Panic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *Panic", v, v)
	}
	if !strings.Contains(fmt.Sprint(p.Value), "index out of range") {
		t.Errorf("Value = %v, want the runtime error", p.Value)
	}
	if !strings.Contains(string(p.Stack), "par.panicsInWorker") {
		t.Errorf("stack does not name the worker's function:\n%s", p.Stack)
	}
	v = catch(func() {
		Do(4, func(i int) error {
			if i == 0 {
				return errors.New("plain")
			}
			panic(i)
		})
	})
	if p, ok := v.(*Panic); !ok || p.Value != 1 {
		t.Errorf("recovered %v, want the panic of worker 1", v)
	}
}

// Ranges covers [0, n) exactly once with contiguous ⌈n/parts⌉ chunks,
// skipping empty ones and keeping each chunk's index.
func TestRangesCoverExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, parts, calls int }{
		{0, 4, 0},
		{3, 8, 3},  // parts > n: one index each
		{10, 0, 1}, // parts < 1 counts as 1
		{10, -3, 1},
		{10, 3, 3},
		{9, 4, 3}, // ⌈9/4⌉ = 3 leaves chunk 3 empty
		{1000, 7, 7},
	} {
		seen := make([]atomic.Int32, tc.n)
		var calls atomic.Int32
		err := Ranges(tc.n, tc.parts, func(p, lo, hi int) error {
			calls.Add(1)
			chunk := (tc.n + max(tc.parts, 1) - 1) / max(tc.parts, 1)
			if lo != p*chunk || hi != min(lo+chunk, tc.n) || lo >= hi {
				t.Errorf("n=%d parts=%d: chunk %d is [%d,%d)", tc.n, tc.parts, p, lo, hi)
			}
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if int(calls.Load()) != tc.calls {
			t.Errorf("n=%d parts=%d: %d calls, want %d", tc.n, tc.parts, calls.Load(), tc.calls)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Errorf("n=%d parts=%d: index %d covered %d times", tc.n, tc.parts, i, c)
			}
		}
	}
}

// Call turns a panic, direct or re-raised by Do, into an error wrapping
// ErrPanic with a "panic: <value>" message, and passes errors through.
func TestCallRecovers(t *testing.T) {
	err := Call(func() error { panic("boom") })
	if !errors.Is(err, ErrPanic) || err.Error() != "panic: boom" {
		t.Errorf("Call = %v, want panic: boom wrapping ErrPanic", err)
	}
	err = Call(func() error { return Do(3, func(i int) error { return panicsInWorker(i, 1) }) })
	var p *Panic
	if !errors.As(err, &p) || !strings.Contains(string(p.Stack), "par.panicsInWorker") {
		t.Errorf("Call = %v, want the worker's *Panic with its stack", err)
	}
	plain := errors.New("plain")
	if err := Call(func() error { return plain }); err != plain {
		t.Errorf("Call = %v, want the function's own error", err)
	}
}
