package core

import (
	"errors"
	"fmt"
	"io"
	"log/slog"

	"graphalytics/internal/algo"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/report"
	"graphalytics/internal/stamp"
	"graphalytics/internal/telemetry"
	"graphalytics/internal/workload"
)

// setupStamps resolves the fingerprint inputs: the binary version, one
// dataset fingerprint per graph (driver-supplied generator identity, or
// content hash as fallback), and one workload stamp per algorithm.
func (c *campaign) setupStamps(algs []algo.Kind) error {
	b := c.b
	// An external executor always stamps: the dataset fingerprint is the
	// content address under which runners fetch graph artifacts, and the
	// cell fingerprint keeps manager- and runner-side stamp stores
	// coherent.
	c.stamping = b.Stamps != nil || b.Artifacts != nil || b.Executor != nil
	if !c.stamping {
		return nil
	}
	c.binary = b.BinaryVersion
	if c.binary == "" {
		c.binary = stamp.BinaryVersion()
	}
	c.graphFPs = make(map[string]stamp.Fingerprint, len(b.Graphs))
	for _, g := range b.Graphs {
		if fp, ok := b.GraphStamps[g.Name()]; ok && !fp.IsZero() {
			c.graphFPs[g.Name()] = fp
			continue
		}
		sp := telemetry.StartSpan("stamp", "graph-fingerprint:"+g.Name())
		fp, err := stamp.OfGraph(g)
		sp.End()
		if err != nil {
			return fmt.Errorf("core: fingerprinting graph %s: %w", g.Name(), err)
		}
		c.graphFPs[g.Name()] = fp
	}
	c.wlStamps = make(map[algo.Kind]string, len(algs))
	for _, a := range algs {
		spec, _ := workload.Lookup(a)
		c.wlStamps[a] = fmt.Sprintf("%s/policy=%s/validate=%t", a, spec.Policy, b.Validate)
	}
	return nil
}

// cellFP is the content fingerprint of one matrix cell — everything
// that determines its result. The zero fingerprint means stamping is
// off.
func (c *campaign) cellFP(p platform.Platform, g *graph.Graph, a algo.Kind) stamp.Fingerprint {
	if !c.stamping {
		return stamp.Fingerprint{}
	}
	return stamp.Cell(stamp.CellInputs{
		Graph:          c.graphFPs[g.Name()],
		Workload:       c.wlStamps[a],
		Params:         stamp.JSON(c.b.Params.WithDefaults(g.NumVertices())),
		Platform:       p.Name(),
		PlatformConfig: platform.StampConfigOf(p),
		Binary:         c.binary,
	})
}

// restoreCell fills a slot without executing anything when the stamped
// result store holds the cell's fingerprint (the cell is UPTODATE: some
// prior campaign — or an interrupted run of this one — produced this
// exact result). Restored results carry a provenance mark so reports
// never pass restored numbers off as fresh measurements. Only a
// successful result of this very cell restores: an entry that does not
// decode, carries no value, failed, or names other coordinates (a
// hand-edited or hostile store) just re-runs the cell.
func (c *campaign) restoreCell(slot int, spec CellSpec) bool {
	if c.b.Stamps == nil || spec.CellFP.IsZero() {
		return false
	}
	var r report.RunResult
	ok, err := c.b.Stamps.Get(spec.CellFP, &r)
	if !ok || err != nil || r.Status != report.StatusSuccess ||
		r.Platform != spec.Platform || r.Graph != spec.Graph || r.Algorithm != spec.Algorithm {
		telemetry.Metrics.Counter("stamp_cell_misses_total",
			"matrix cells the stamped result store held no usable entry for").Inc()
		return false
	}
	r.Provenance = report.ProvenanceUptodate
	c.cells[slot] = &r
	telemetry.Metrics.Counter("stamp_cell_hits_total",
		"matrix cells restored from the stamped result store (UPTODATE)").Inc()
	return true
}

// finishCell publishes a final cell outcome: slot write (collation),
// release of the shared reference, stamp-store entry (successes only —
// failures must re-run next campaign, they are circumstances, not
// content), progress callback (live output). The stamp write is
// best-effort — a failed write only means the cell re-runs later — but
// it is counted, never silently dropped.
func (c *campaign) finishCell(cell pendingCell, r report.RunResult) {
	c.cells[cell.slot] = &r
	if cell.ref != nil {
		cell.ref.release()
	}
	slog.Debug("core: cell finished",
		"cell", cell.key, "platform", r.Platform, "graph", r.Graph, "algorithm", string(r.Algorithm),
		"status", string(r.Status), "runtime", r.Runtime, "attempts", r.Attempts)
	if fp := cell.spec.CellFP; c.b.Stamps != nil && !fp.IsZero() && r.Status == report.StatusSuccess {
		if err := c.b.Stamps.Put(fp, r); err != nil {
			telemetry.Metrics.Counter("stamp_store_write_failures_total",
				"successful cells that failed to record in the stamped result store").Inc()
			slog.Debug("core: stamp store write failed", "cell", cell.key, "err", err)
		}
	}
	if c.b.Progress != nil {
		c.progressMu.Lock()
		c.b.Progress(r)
		c.progressMu.Unlock()
	}
}

// loadOrRestore performs the ETL step, going through the artifact cache
// when the platform supports it: a cached blob restores via ReadETL
// (budget-checked like a live load); a miss runs LoadGraph and stores
// the result for the next campaign; a corrupt or unreadable artifact is
// reported, regenerated, and overwritten — never trusted.
func (c *campaign) loadOrRestore(pg *pgState) (platform.Loaded, bool, error) {
	cl, ok := pg.p.(platform.CachedLoader)
	if !ok || c.b.Artifacts == nil || !c.stamping {
		l, err := pg.p.LoadGraph(pg.g)
		return l, false, err
	}
	fp := ETLFingerprint(cl, c.graphFPs[pg.g.Name()], c.binary)
	rc, hit, err := c.b.Artifacts.OpenETL(fp)
	if err != nil {
		slog.Warn("core: corrupt ETL artifact; re-running ETL",
			"platform", pg.p.Name(), "graph", pg.g.Name(), "err", err)
	} else if hit {
		l, rerr := cl.ReadETL(pg.g, rc)
		rc.Close()
		if rerr == nil {
			return l, true, nil
		}
		if errors.Is(rerr, platform.ErrOutOfMemory) {
			// The blob restored fine but does not fit the budget — the
			// same terminal failure a live load would hit.
			return nil, false, rerr
		}
		slog.Warn("core: unreadable ETL artifact; re-running ETL",
			"platform", pg.p.Name(), "graph", pg.g.Name(), "err", rerr)
	}
	l, err := pg.p.LoadGraph(pg.g)
	if err != nil {
		return nil, false, err
	}
	if serr := c.b.Artifacts.StoreETL(fp, func(w io.Writer) error {
		return cl.WriteETL(l, w)
	}); serr != nil {
		slog.Warn("core: storing ETL artifact failed; next campaign re-runs ETL",
			"platform", pg.p.Name(), "graph", pg.g.Name(), "err", serr)
	}
	return l, false, nil
}

// ETLFingerprint is the content address of cl's ETL artifact for the
// dataset graphFP under binary: the key a local load restores from and
// a runner prefetches.
func ETLFingerprint(cl platform.CachedLoader, graphFP stamp.Fingerprint, binary string) stamp.Fingerprint {
	return stamp.ETL(graphFP, cl.Name(), platform.StampConfigOf(cl), cl.ETLVersion(), binary)
}
