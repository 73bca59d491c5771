package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/par"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/platformtest"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/report"
)

// TestFailureTaxonomy takes every report status through errOf,
// transient and statusOf: a row that crossed the distributed seam must
// retry (or not) exactly as the local pool classifies the same failure,
// and must come back as the status it left with.
func TestFailureTaxonomy(t *testing.T) {
	const (
		final     = "final"     // no error: recorded as is
		terminal  = "terminal"  // error, never retried
		retryable = "retryable" // error, retried while budget remains
	)
	for _, tc := range []struct {
		status report.Status
		class  string
		detail string // the row's Err; "" means "runner says <status>"
	}{
		{report.StatusSuccess, final, ""},
		{report.StatusInvalid, final, ""},
		{report.StatusOOM, terminal, ""},
		{report.StatusTimeout, terminal, ""},
		{report.StatusCancelled, terminal, ""},
		{report.StatusError, retryable, ""},
		{report.StatusLoadError, retryable, ""},
		// A panic the runner recovered crosses as its detail only.
		{report.StatusError, terminal, "panic: runtime error: index out of range [3] with length 3"},
		{report.StatusLoadError, terminal, "panic: etl broke"},
	} {
		name := string(tc.status)
		if tc.detail == "" {
			tc.detail = "runner says " + name
		} else {
			name += "/panic"
		}
		t.Run(name, func(t *testing.T) {
			err := errOf(tc.status, tc.detail)
			if tc.class == final {
				if err != nil {
					t.Fatalf("errOf = %v, want nil for a final status", err)
				}
				return
			}
			if err == nil {
				t.Fatal("errOf = nil for a failure status")
			}
			if got, want := transient(err), tc.class == retryable; got != want {
				t.Errorf("transient(%v) = %t, want %t", err, got, want)
			}
			if got := statusOf(err); got != tc.status {
				t.Errorf("statusOf(errOf(%s)) = %s", tc.status, got)
			}
			if strings.HasPrefix(tc.detail, "panic: ") && err.Error() != tc.detail {
				t.Errorf("errOf message = %q, want the row's %q", err, tc.detail)
			}
		})
	}
}

// The local pool's own errors classify the same way as their wire
// forms: what a kernel or ETL step returns, statusOf maps.
func TestStatusOfLocalErrors(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want report.Status
	}{
		{fmt.Errorf("pregel: %w", platform.ErrOutOfMemory), report.StatusOOM},
		{fmt.Errorf("run: %w", context.DeadlineExceeded), report.StatusTimeout},
		{fmt.Errorf("%w: %w", platform.ErrInterrupted, context.Canceled), report.StatusCancelled},
		{errors.New("kernel broke"), report.StatusError},
		{loadError{errors.New("etl broke")}, report.StatusLoadError},
		{loadError{fmt.Errorf("etl: %w", platform.ErrOutOfMemory)}, report.StatusOOM},
		{par.Call(func() error { panic("kernel broke") }), report.StatusError},
		{loadError{par.Call(func() error { panic("etl broke") })}, report.StatusLoadError},
	} {
		if got := statusOf(tc.err); got != tc.want {
			t.Errorf("statusOf(%v) = %s, want %s", tc.err, got, tc.want)
		}
	}
	if err := par.Call(func() error { panic("kernel broke") }); transient(err) {
		t.Errorf("transient(%v) = true, want a recovered panic never retried", err)
	}
	if got := (loadError{errors.New("etl broke")}).Error(); got != "etl broke" {
		t.Errorf("loadError message = %q, want the load error's own", got)
	}
}

// A platform that panics in LoadGraph, in Run and inside a kernel's
// worker goroutine fails only its own cells: the campaign still returns
// a report, the panicking cells are not retried, and every other cell is
// the one a campaign without that platform records.
func TestPanickingPlatformFailsItsCells(t *testing.T) {
	graphs := []*graph.Graph{smokeGraph(t, 200, "social"), smokeGraph(t, 120, "poison")}
	faulty := &platformtest.Faulty{Platform: pregel.New(pregel.Options{}),
		LoadPanics: "poison", RunPanics: algo.CONN, WorkerPanics: algo.PR}
	run := func(plats ...platform.Platform) []report.RunResult {
		rep, err := (&Benchmark{
			Platforms:  plats,
			Graphs:     graphs,
			Algorithms: []algo.Kind{algo.BFS, algo.CONN, algo.PR},
			Validate:   true,
			Retries:    2,
			Params:     algo.Params{Source: 0, Seed: 3},
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep.Results
	}
	clean := run(pregel.New(pregel.Options{}))
	platformtest.CheckFaultyCampaign(t, faulty, run(pregel.New(pregel.Options{}), faulty), clean)
}
