package resultsdb

import (
	"math"
	"net/http"
	"sort"
	"strconv"

	"graphalytics/internal/report"
)

// The regression detector closes the loop the ROADMAP calls for: the
// results database already accumulates submissions over time, so every
// (platform, graph, algorithm) series doubles as that platform's
// performance history. A submission whose kTEPS (or a graph's ingest
// EVPS) falls beyond threshold below the trailing baseline of its own
// history is flagged — with the threshold widened on noisy series so a
// jittery-but-flat platform is not paged on.

// RegressionOptions tunes the history comparison.
type RegressionOptions struct {
	// Threshold is the minimum relative drop vs the trailing baseline
	// considered a regression (default 0.15 = 15%).
	Threshold float64
	// Window is the trailing-baseline length: the latest point is
	// compared against the mean of up to Window prior points
	// (default 5).
	Window int
}

// noiseSigmas widens the threshold to k·σ_rel of the baseline window,
// so noisy-but-flat series stay quiet.
const noiseSigmas = 2

func (o RegressionOptions) withDefaults() RegressionOptions {
	if o.Threshold <= 0 {
		o.Threshold = 0.15
	}
	if o.Window <= 0 {
		o.Window = 5
	}
	return o
}

// MetricPoint is one submission's value in a metric series.
type MetricPoint struct {
	SubmissionID int64   `json:"submission_id"`
	Value        float64 `json:"value"`
}

// seriesKey identifies one metric history.
type seriesKey struct {
	platform  string
	graph     string
	algorithm string
	metric    string // "kteps" or "evps"
}

// Regressions judges every metric history and returns the flagged
// series (sorted by drop, worst first) plus the number of series
// checked. Series with fewer than two points can have no baseline and
// never flag.
func (s *Store) Regressions(opts RegressionOptions) ([]report.Regression, int) {
	opts = opts.withDefaults()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var regs []report.Regression
	for k, pts := range s.history {
		if r, ok := judge(k, pts, opts); ok {
			regs = append(regs, r)
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Drop != regs[j].Drop {
			return regs[i].Drop > regs[j].Drop
		}
		a, b := regs[i], regs[j]
		return a.Platform+"|"+a.Graph+"|"+a.Algorithm < b.Platform+"|"+b.Graph+"|"+b.Algorithm
	})
	return regs, len(s.history)
}

// judge compares the latest point of one series against its trailing
// baseline.
func judge(k seriesKey, pts []MetricPoint, opts RegressionOptions) (report.Regression, bool) {
	if len(pts) < 2 {
		return report.Regression{}, false
	}
	latest := pts[len(pts)-1]
	window := pts[:len(pts)-1]
	if len(window) > opts.Window {
		window = window[len(window)-opts.Window:]
	}
	var sum float64
	for _, p := range window {
		sum += p.Value
	}
	mean := sum / float64(len(window))
	if mean <= 0 {
		return report.Regression{}, false
	}
	// Noise widening: relative stddev of the baseline window (0 for a
	// single-point window, which leaves the static threshold).
	var relStddev float64
	if len(window) > 1 {
		var sq float64
		for _, p := range window {
			d := p.Value - mean
			sq += d * d
		}
		relStddev = math.Sqrt(sq/float64(len(window)-1)) / mean
	}
	threshold := math.Max(opts.Threshold, noiseSigmas*relStddev)
	drop := (mean - latest.Value) / mean
	if drop <= threshold {
		return report.Regression{}, false
	}
	return report.Regression{
		Platform:     k.platform,
		Graph:        k.graph,
		Algorithm:    k.algorithm,
		Metric:       k.metric,
		Baseline:     mean,
		Latest:       latest.Value,
		Drop:         drop,
		Threshold:    threshold,
		Points:       len(window),
		SubmissionID: latest.SubmissionID,
	}, true
}

// regressionsResponse is the /api/v1/regressions document.
type regressionsResponse struct {
	Checked     int                 `json:"checked"`
	Threshold   float64             `json:"threshold"`
	Window      int                 `json:"window"`
	Regressions []report.Regression `json:"regressions"`
}

func (s *Store) handleRegressions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, "GET")
		return
	}
	q := r.URL.Query()
	opts := RegressionOptions{}
	if v := q.Get("threshold"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 || f >= 1 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "threshold must be in (0, 1)"})
			return
		}
		opts.Threshold = f
	}
	if v := q.Get("window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "window must be a positive integer"})
			return
		}
		opts.Window = n
	}
	regs, checked := s.Regressions(opts)
	eff := opts.withDefaults()
	if regs == nil {
		regs = []report.Regression{}
	}
	writeJSON(w, http.StatusOK, regressionsResponse{
		Checked:     checked,
		Threshold:   eff.Threshold,
		Window:      eff.Window,
		Regressions: regs,
	})
}
