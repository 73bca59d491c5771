// Package par is the one fan-out of the harness: run n functions on n
// goroutines and wait for all of them. Every parallel loop inside a cell
// (kernels, CSR builds, ingest, generators) goes through Do or Ranges,
// so a worker's panic never escapes its goroutine: it comes back on the
// caller's goroutine once every worker has returned, where Call turns it
// into an error and a crashing kernel becomes a failed cell instead of a
// dead process. The package imports only the standard library, because
// graph and gen import it.
package par

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// ErrPanic is wrapped by every error that stands for a recovered panic.
var ErrPanic = errors.New("panic")

// Panic is a recovered panic: the value passed to panic and the stack of
// the goroutine that panicked. Do re-raises it as the panic value; as an
// error (from Call) it reads "panic: <value>" and wraps ErrPanic.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string { return fmt.Sprintf("panic: %v", p.Value) }

func (p *Panic) Unwrap() error { return ErrPanic }

// recovered wraps a value returned by recover, keeping an inner worker's
// *Panic (and so its stack) when Do re-raised one.
func recovered(v any) *Panic {
	if p, ok := v.(*Panic); ok {
		return p
	}
	return &Panic{Value: v, Stack: debug.Stack()}
}

// Do runs fn(0) … fn(n-1), each on its own goroutine, waits for all of
// them and returns the lowest-index error. If any worker panicked, Do
// re-raises the lowest-index panic as a *Panic after every worker has
// returned, on the caller's goroutine.
func Do(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	type outcome struct {
		err   error
		panic *Panic
	}
	out := make([]outcome, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					out[i].panic = recovered(v)
				}
			}()
			out[i].err = fn(i)
		}()
	}
	wg.Wait()
	for _, o := range out {
		if o.panic != nil {
			panic(o.panic)
		}
	}
	for _, o := range out {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// Ranges cuts [0, n) into parts contiguous chunks of ⌈n/parts⌉ indices
// (parts < 1 counts as 1) and runs fn(p, lo, hi) for every non-empty
// chunk p through Do. Empty chunks are skipped; p keeps the chunk's
// index, so per-part state indexed by p lines up.
func Ranges(n, parts int, fn func(p, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	chunk := (n + max(parts, 1) - 1) / max(parts, 1)
	return Do((n+chunk-1)/chunk, func(p int) error {
		return fn(p, p*chunk, min((p+1)*chunk, n))
	})
}

// Call runs fn on the caller's goroutine and returns its error; a panic
// in fn, or one that Do re-raised from a worker, comes back as a *Panic
// error instead of unwinding further.
func Call(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = recovered(v)
		}
	}()
	return fn()
}
