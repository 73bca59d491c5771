package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"graphalytics/internal/par"
	"graphalytics/internal/platform"
	"graphalytics/internal/report"
)

// The failure taxonomy: how an execution error becomes the status a
// report records (statusOf), how a recorded status becomes the error
// the retry policy classifies again (errOf), and which errors retry
// (transient). Every mapping between report.Status and errors lives in
// this file, so a cell fails the same way whether it ran in this
// process or crossed the distributed seam as a report row.

// transient classifies errors the scheduler may retry: everything
// except the terminal missing-value states (out of memory, timeout),
// interruption and panics. platform.ErrInterrupted always wraps the
// context error, so the two context checks already cover it; the
// explicit sentinel check keeps a cancelled kernel out of the retry
// budget even if a platform ever wraps the sentinel without the cause.
// A panic is a bug, and the same inputs would only hit it again.
func transient(err error) bool {
	return !errors.Is(err, platform.ErrOutOfMemory) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, platform.ErrInterrupted) &&
		!errors.Is(err, par.ErrPanic)
}

// loadError marks a failed ETL step, so the pair's cells record
// load-failed; its message is the load error's own.
type loadError struct{ error }

func (e loadError) Unwrap() error { return e.error }

// statusOf is the missing-value status of a cell that failed with err.
// A kernel that was interrupted (platform.ErrInterrupted wraps the
// context error) is cancelled, never a platform failure; an ETL failure
// other than out-of-memory is load-failed.
func statusOf(err error) report.Status {
	switch {
	case errors.Is(err, platform.ErrOutOfMemory):
		return report.StatusOOM
	case errors.Is(err, context.DeadlineExceeded):
		return report.StatusTimeout
	case errors.Is(err, context.Canceled):
		return report.StatusCancelled
	case errors.As(err, new(loadError)):
		return report.StatusLoadError
	default:
		return report.StatusError
	}
}

// errOf is the inverse of statusOf: the execution error a cell that
// ended in status carries, with detail (the row's Err) as its message.
// Success and invalid are final outcomes and carry none, exactly as the
// local pool's runCell returns nil for them. A failure whose detail is a
// recovered panic's ("panic: …") is a *par.Panic again, so it is not
// retried on either side of the seam.
func errOf(status report.Status, detail string) error {
	if detail == "" {
		detail = string(status)
	}
	var cause error
	switch status {
	case report.StatusSuccess, report.StatusInvalid:
		return nil
	case report.StatusOOM:
		cause = platform.ErrOutOfMemory
	case report.StatusTimeout:
		cause = context.DeadlineExceeded
	case report.StatusCancelled:
		cause = context.Canceled
	default:
		// error and load-failed. A panic's stack stayed in the process
		// that recovered it; its value's text crossed in the detail.
		err := errors.New(detail)
		if v, ok := strings.CutPrefix(detail, "panic: "); ok {
			err = &par.Panic{Value: v}
		}
		if status == report.StatusLoadError {
			return loadError{err}
		}
		return err
	}
	return fmt.Errorf("%s: %w", detail, cause)
}

// MissingValue is the report row of a cell that failed without
// producing one: the cell's coordinates and the status its error
// classifies as. It fills the slot of a cell whose executor returned no
// row, and a runner sends it for a lease it could not turn into a cell.
func MissingValue(spec CellSpec, err error) report.RunResult {
	r := report.RunResult{
		Platform:   spec.Platform,
		Graph:      spec.Graph,
		Algorithm:  spec.Algorithm,
		Status:     report.StatusError,
		GraphEdges: spec.GraphEdges,
		Err:        "executor returned no result",
	}
	if err != nil {
		r.Status, r.Err = statusOf(err), err.Error()
	}
	return r
}
