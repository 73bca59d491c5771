package platformtest

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/par"
	"graphalytics/internal/platform"
	"graphalytics/internal/report"
)

// Faulty is a fault-injection platform named "faulty". It wraps a real
// engine and panics where a broken engine would: in LoadGraph on the
// graph named LoadPanics, in Run for algorithm RunPanics, and inside a
// par.Do worker for algorithm WorkerPanics. Every other call goes to
// the wrapped engine, so its healthy cells are that engine's cells.
type Faulty struct {
	platform.Platform
	LoadPanics   string
	RunPanics    algo.Kind
	WorkerPanics algo.Kind
}

func (f *Faulty) Name() string { return "faulty" }

func (f *Faulty) LoadGraph(g *graph.Graph) (platform.Loaded, error) {
	if g.Name() == f.LoadPanics {
		panic("faulty: cannot load " + g.Name())
	}
	l, err := f.Platform.LoadGraph(g)
	if err != nil {
		return nil, err
	}
	return faultyLoaded{l, f}, nil
}

type faultyLoaded struct {
	platform.Loaded
	f *Faulty
}

func (l faultyLoaded) Run(ctx context.Context, kind algo.Kind, p algo.Params) (*platform.Result, error) {
	switch kind {
	case l.f.RunPanics:
		var out []int
		out[len(kind)]++ // index out of range, as a kernel bug would
	case l.f.WorkerPanics:
		par.Do(2, func(w int) error {
			if w == 1 {
				panic("faulty: worker 1 of " + string(kind))
			}
			return nil
		})
	}
	return l.Loaded.Run(ctx, kind, p)
}

// CheckFaultyCampaign checks a campaign that ran f beside real engines
// against clean, the same campaign without f: f's panicking cells are
// load-failed or error with a "panic:" detail after one attempt, and
// every other cell (f's healthy ones included, as cells of the engine
// f wraps) equals its clean counterpart apart from timings.
func CheckFaultyCampaign(tb testing.TB, f *Faulty, got, clean []report.RunResult) {
	tb.Helper()
	key := func(r report.RunResult) string { return r.Platform + "/" + r.Graph + "/" + string(r.Algorithm) }
	want, seen := make(map[string]string, len(clean)), make(map[string]bool, len(clean))
	for _, r := range clean {
		want[key(r)] = timeless(tb, r)
	}
	for _, r := range got {
		if r.Platform == f.Name() {
			var status report.Status
			switch {
			case r.Graph == f.LoadPanics:
				status = report.StatusLoadError
			case r.Algorithm == f.RunPanics || r.Algorithm == f.WorkerPanics:
				status = report.StatusError
			}
			if status != "" {
				if r.Status != status || r.Attempts != 1 || !strings.HasPrefix(r.Err, "panic: ") {
					tb.Errorf("%s: %s after %d attempts (%s), want %s with a panic: detail after 1",
						key(r), r.Status, r.Attempts, r.Err, status)
				}
				continue
			}
			r.Platform = f.Platform.Name() // a healthy cell is the wrapped engine's
		}
		if w, ok := want[key(r)]; !ok || timeless(tb, r) != w {
			tb.Errorf("%s differs from the campaign without %s:\n got: %s\nwant: %s", key(r), f.Name(), timeless(tb, r), w)
		}
		seen[key(r)] = true
	}
	for k := range want {
		if !seen[k] {
			tb.Errorf("%s: missing from the campaign with %s", k, f.Name())
		}
	}
}

// timeless renders a row without its timings, as canonical JSON. Every
// other counter, peak memory included, belongs to the cell alone.
func timeless(tb testing.TB, r report.RunResult) string {
	r.Runtime, r.LoadTime, r.KTEPS = 0, 0, 0
	r.Reps, r.Resources, r.Provenance = nil, nil, ""
	r.Counters.WorkerBusy = nil
	b, err := json.Marshal(r)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}
