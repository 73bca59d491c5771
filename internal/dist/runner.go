package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"time"

	"graphalytics/internal/artifact"
	"graphalytics/internal/core"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/dataflow"
	"graphalytics/internal/platform/graphdb"
	"graphalytics/internal/platform/mapreduce"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/report"
	"graphalytics/internal/stamp"
)

// AllPlatforms is the default runner capability set: every engine in
// the tree.
var AllPlatforms = []string{"pregel", "mapreduce", "dataflow", "graphdb"}

// RunnerOptions configures a campaign runner process.
type RunnerOptions struct {
	// Name identifies the runner in manager logs (defaults to the local
	// connection address).
	Name string
	// Slots is how many leases the runner accepts concurrently
	// (0 = 1). The manager never leases beyond it.
	Slots int
	// Platforms restricts which platforms this runner accepts leases
	// for (nil = AllPlatforms).
	Platforms []string
	// Cache is the runner's local artifact cache: graphs and ETL blobs
	// land here under their content address, so later leases (and later
	// campaigns) skip the transfer. Required.
	Cache *artifact.Cache
	// Stamps, when non-nil, is the runner's stamped result store —
	// normally opened at Cache.StampStorePath(). A re-leased cell the
	// runner already executed restores from it instead of re-running.
	Stamps *stamp.Store
}

// Runner is the worker side of a distributed campaign: it connects to a
// manager, announces its capabilities, and turns each lease into a
// 1×1×1 local campaign — same kernels, same monitor, same validation,
// same stamping — so the result rows it streams back are
// indistinguishable from rows the manager would have produced itself.
type Runner struct {
	opts RunnerOptions
	fc   *frameConn

	mu      sync.Mutex
	graphs  map[stamp.Fingerprint]*graph.Graph // loaded datasets
	pending map[uint64]chan fetched            // ReqID → waiter
	nextReq uint64

	managerBinary string
	slots         chan struct{} // semaphore: one token per concurrent lease
	wg            sync.WaitGroup
	// build constructs the platform a lease names: BuildPlatform, or a
	// test's fault-injecting engine.
	build func(PlatformSpec) (platform.Platform, error)
}

type fetched struct {
	payload []byte
	found   bool
}

// Connect dials the manager and performs the hello exchange.
func Connect(addr string, opts RunnerOptions) (*Runner, error) {
	if opts.Cache == nil {
		return nil, errors.New("dist: runner needs an artifact cache")
	}
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.Platforms == nil {
		opts.Platforms = AllPlatforms
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: connecting to manager: %w", err)
	}
	fc := newFrameConn(conn)
	hello := &Msg{
		Type:      TypeHello,
		Runner:    opts.Name,
		Platforms: opts.Platforms,
		Slots:     opts.Slots,
		Binary:    stamp.BinaryVersion(),
		Version:   ProtocolVersion,
	}
	if err := fc.send(hello); err != nil {
		fc.Close()
		return nil, fmt.Errorf("dist: hello: %w", err)
	}
	reply, _, err := fc.recv()
	if err != nil {
		fc.Close()
		return nil, fmt.Errorf("dist: waiting for manager hello: %w", err)
	}
	if reply.Type == TypeError {
		fc.Close()
		return nil, fmt.Errorf("dist: manager rejected runner: %s", reply.Err)
	}
	if reply.Type != TypeHello {
		fc.Close()
		return nil, fmt.Errorf("dist: expected hello from manager, got %q", reply.Type)
	}
	r := &Runner{
		opts:          opts,
		fc:            fc,
		graphs:        make(map[stamp.Fingerprint]*graph.Graph),
		pending:       make(map[uint64]chan fetched),
		managerBinary: reply.Binary,
		slots:         make(chan struct{}, opts.Slots),
		build:         BuildPlatform,
	}
	slog.Info("dist: connected to manager", "addr", addr,
		"slots", opts.Slots, "platforms", opts.Platforms)
	return r, nil
}

// Run serves leases until the manager says bye, the connection breaks,
// or ctx is cancelled. It returns nil on a graceful bye.
func (r *Runner) Run(ctx context.Context) error {
	defer r.fc.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		<-ctx.Done()
		r.fc.Close() // unblocks the read loop on cancellation
	}()

	for {
		msg, payload, err := r.fc.recv()
		if err != nil {
			r.wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("dist: manager connection lost: %w", err)
		}
		switch msg.Type {
		case TypeLease:
			lease := msg.Lease
			if lease == nil {
				continue
			}
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				r.slots <- struct{}{}
				defer func() { <-r.slots }()
				r.executeLease(ctx, lease)
			}()
		case TypeBlob:
			r.mu.Lock()
			ch, ok := r.pending[msg.ReqID]
			delete(r.pending, msg.ReqID)
			r.mu.Unlock()
			if ok {
				ch <- fetched{payload: payload, found: msg.Found}
			}
		case TypeBye:
			slog.Info("dist: manager said bye; draining")
			r.wg.Wait()
			return nil
		case TypeError:
			r.wg.Wait()
			return fmt.Errorf("dist: manager error: %s", msg.Err)
		default:
			slog.Debug("dist: ignoring unexpected frame", "type", msg.Type)
		}
	}
}

// fetch requests one artifact from the manager and waits for the blob.
func (r *Runner) fetch(ctx context.Context, kind, fpHex string) ([]byte, bool, error) {
	ch := make(chan fetched, 1)
	r.mu.Lock()
	r.nextReq++
	id := r.nextReq
	r.pending[id] = ch
	r.mu.Unlock()
	if err := r.fc.send(&Msg{Type: TypeFetch, ReqID: id, Kind: kind, FP: fpHex}); err != nil {
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
		return nil, false, err
	}
	select {
	case f := <-ch:
		return f.payload, f.found, nil
	case <-ctx.Done():
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
		return nil, false, ctx.Err()
	}
}

// getGraph resolves a lease's dataset: in-memory memo, then the local
// artifact cache, then a fetch from the manager (stored into the cache
// for the next lease and the next campaign).
func (r *Runner) getGraph(ctx context.Context, name string, fp stamp.Fingerprint) (*graph.Graph, error) {
	r.mu.Lock()
	g := r.graphs[fp]
	r.mu.Unlock()
	if g != nil {
		return g, nil
	}

	g, hit, err := r.opts.Cache.LoadGraph(fp, runtime.NumCPU())
	if err != nil {
		slog.Warn("dist: cached graph unreadable; refetching", "fp", fp.String(), "err", err)
	}
	if !hit || err != nil {
		payload, found, ferr := r.fetch(ctx, "graph", fp.String())
		if ferr != nil {
			return nil, ferr
		}
		if !found {
			return nil, fmt.Errorf("dist: manager has no graph %s (%s)", name, fp)
		}
		slog.Info("dist: fetched graph from manager", "graph", name,
			"bytes", len(payload))
		g, err = graph.ReadBinary(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("dist: decoding fetched graph %s: %w", name, err)
		}
		if err := r.opts.Cache.StoreGraph(fp, g); err != nil {
			slog.Warn("dist: caching fetched graph failed", "graph", name, "err", err)
		}
	}
	g.SetName(name)
	r.mu.Lock()
	r.graphs[fp] = g
	r.mu.Unlock()
	return g, nil
}

// BuildPlatform constructs the engine a PlatformSpec describes — the
// runner-side mirror of the driver's platform construction, so the
// platform configuration stamp (and therefore the cell fingerprint)
// matches the manager's.
func BuildPlatform(spec PlatformSpec) (platform.Platform, error) {
	switch spec.Name {
	case "pregel":
		return pregel.New(pregel.Options{Workers: spec.Workers, MemoryBudget: spec.Memory}), nil
	case "mapreduce":
		return mapreduce.New(mapreduce.Options{Workers: spec.Workers}), nil
	case "dataflow":
		return dataflow.New(dataflow.Options{Parts: spec.Workers, MemoryBudget: spec.Memory}), nil
	case "graphdb":
		return graphdb.New(graphdb.Options{MemoryBudget: spec.Memory}), nil
	default:
		return nil, fmt.Errorf("dist: unknown platform %q", spec.Name)
	}
}

// prefetchETL pulls the platform's cached ETL artifact from the manager
// when the runner does not hold it, so platforms with an expensive
// transformation (graphdb) skip the local ETL exactly as a local
// campaign with a warm cache would.
func (r *Runner) prefetchETL(ctx context.Context, p platform.Platform, cell core.CellSpec) {
	cl, ok := p.(platform.CachedLoader)
	if !ok {
		return
	}
	fp := core.ETLFingerprint(cl, cell.GraphFP, cell.Binary)
	if rc, hit, err := r.opts.Cache.OpenETL(fp); err == nil && hit {
		rc.Close()
		return
	}
	payload, found, err := r.fetch(ctx, "etl", fp.String())
	if err != nil || !found {
		return // regenerate locally; a miss is not an error
	}
	err = r.opts.Cache.StoreETL(fp, func(w io.Writer) error {
		_, werr := w.Write(payload)
		return werr
	})
	if err != nil {
		slog.Warn("dist: caching fetched ETL failed", "fp", fp.String(), "err", err)
		return
	}
	slog.Info("dist: fetched ETL artifact from manager",
		"platform", p.Name(), "bytes", len(payload))
}

// executeLease turns one lease into a single-cell local campaign and
// streams the result back. Keepalive progress frames flow every
// KeepaliveNS for as long as the cell runs.
func (r *Runner) executeLease(ctx context.Context, lease *Lease) {
	start := time.Now()
	slog.Info("dist: lease accepted", "lease", lease.ID,
		"platform", lease.Platform.Name, "graph", lease.Cell.Graph, "algorithm", string(lease.Cell.Algorithm))

	stopKeepalive := r.startKeepalive(ctx, lease, start)
	result, err := r.runLease(ctx, lease)
	stopKeepalive()
	if ctx.Err() != nil {
		return // connection is going down; nothing to send
	}
	if err != nil {
		slog.Warn("dist: lease failed before producing a cell",
			"lease", lease.ID, "err", err)
		mv := core.MissingValue(lease.Cell, err)
		result = &mv
	}
	if serr := r.fc.send(&Msg{Type: TypeResult, LeaseID: lease.ID, Result: result}); serr != nil {
		slog.Warn("dist: sending result failed", "lease", lease.ID, "err", serr)
		return
	}
	slog.Info("dist: lease done", "lease", lease.ID,
		"status", string(result.Status), "elapsed", time.Since(start).Round(time.Millisecond))
}

// startKeepalive streams progress frames for an in-flight lease until
// the returned stop function is called.
func (r *Runner) startKeepalive(ctx context.Context, lease *Lease, start time.Time) func() {
	interval := time.Duration(lease.KeepaliveNS)
	if interval <= 0 {
		interval = 15 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				_ = r.fc.send(&Msg{
					Type:      TypeProgress,
					LeaseID:   lease.ID,
					Phase:     "run",
					ElapsedNS: int64(time.Since(start)),
					HeapBytes: ms.HeapAlloc,
				})
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// runLease executes the cell: resolve the dataset, mirror the
// platform, and run a 1×1×1 campaign through the exact engine a local
// run uses — stamping included, so a cell this runner has already
// executed (a re-lease after a dropped result) restores instead of
// re-running.
func (r *Runner) runLease(ctx context.Context, lease *Lease) (*report.RunResult, error) {
	cell := lease.Cell
	g, err := r.getGraph(ctx, cell.Graph, cell.GraphFP)
	if err != nil {
		return nil, err
	}
	p, err := r.build(lease.Platform)
	if err != nil {
		return nil, err
	}
	r.prefetchETL(ctx, p, cell)

	bench := cell.Campaign(p, g)
	bench.Stamps = r.opts.Stamps
	bench.Artifacts = r.opts.Cache
	rep, err := bench.Run(ctx)
	if err != nil {
		return nil, err
	}
	if len(rep.Results) != 1 {
		return nil, fmt.Errorf("dist: lease produced %d results, want 1", len(rep.Results))
	}
	result := rep.Results[0]
	if r.opts.Stamps != nil && result.Status == report.StatusSuccess && !r.opts.Stamps.Has(cell.CellFP) {
		// The cell succeeded but was stamped under a different
		// fingerprint than the manager computed: configuration drift
		// between manager and runner.
		slog.Warn("dist: cell fingerprint drift between manager and runner",
			"lease", lease.ID, "manager_fp", cell.CellFP.String())
	}
	return &result, nil
}
