package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"graphalytics/internal/platform"
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
	}{
		{report.StatusSuccess, final},
		{report.StatusInvalid, final},
		{report.StatusOOM, terminal},
		{report.StatusTimeout, terminal},
		{report.StatusCancelled, terminal},
		{report.StatusError, retryable},
		{report.StatusLoadError, retryable},
	} {
		t.Run(string(tc.status), func(t *testing.T) {
			err := errOf(tc.status, "runner says "+string(tc.status))
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
	} {
		if got := statusOf(tc.err); got != tc.want {
			t.Errorf("statusOf(%v) = %s, want %s", tc.err, got, tc.want)
		}
	}
	if got := (loadError{errors.New("etl broke")}).Error(); got != "etl broke" {
		t.Errorf("loadError message = %q, want the load error's own", got)
	}
}
