package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"graphalytics/internal/artifact"
	"graphalytics/internal/core"
	"graphalytics/internal/graph"
	"graphalytics/internal/report"
	"graphalytics/internal/stamp"
	"graphalytics/internal/telemetry"
)

// DefaultLeaseTimeout is how long a lease may go without progress
// before the manager re-leases its cell. Progress keepalives arrive
// every LeaseTimeout/4, so only a dead or wedged runner trips it.
const DefaultLeaseTimeout = 2 * time.Minute

// ManagerOptions configures a campaign manager.
type ManagerOptions struct {
	// Platforms maps platform names to the construction recipe shipped
	// in leases, so runners build engines identical to the manager's
	// configuration.
	Platforms map[string]PlatformSpec
	// Graphs holds the campaign datasets by name; the manager serves
	// their serialized form to runners that miss them in their local
	// caches.
	Graphs map[string]*graph.Graph
	// Artifacts, when non-nil, additionally serves platform ETL blobs
	// by fingerprint (the remote shared artifact store).
	Artifacts *artifact.Cache
	// LeaseTimeout is the progress deadline per lease (0 =
	// DefaultLeaseTimeout). A cell whose runner sends neither progress
	// nor a result within it is re-queued for another runner.
	LeaseTimeout time.Duration
	// Binary is the manager's binary/kernel version folded into leases
	// (defaults to stamp.BinaryVersion()); mismatched runners are
	// accepted with a warning, since the lease pins the fingerprint
	// identity either way.
	Binary string
}

// Manager is the distributed campaign manager: it implements
// core.CellExecutor as a remote lease pool. Pending cells queue until a
// connected runner with a free slot supports their platform; each lease
// carries the full cell recipe, and the runner streams progress
// keepalives and finally the finished report row back. A runner that
// dies (connection drop) or stalls (lease timeout) has its in-flight
// cells silently re-queued — cell-level idempotence is already
// guaranteed by the campaign's stamp store, and exactly one
// result per cell ever reaches the report because completion is
// resolved per task, not per lease.
type Manager struct {
	opts ManagerOptions
	ln   net.Listener

	mu         sync.Mutex
	runners    map[*runnerConn]bool
	queue      []*task
	nextLease  uint64
	fpGraphs   map[string]*graph.Graph // fingerprint hex → dataset
	blobs      map[string][]byte       // fingerprint hex → serialized GALB
	closed     bool
	waitWarned bool
	stats      Stats
}

// Stats is a snapshot of the manager's lease accounting.
type Stats struct {
	// Runners is the number of currently connected runners.
	Runners int
	// Leases counts leases ever granted (including re-leases).
	Leases int
	// Releases counts cells re-queued after a runner died or stalled.
	Releases int
	// StaleResults counts results that arrived for a lease no longer
	// current (a zombie runner finishing after its lease timed out);
	// they are dropped, never double-recorded.
	StaleResults int
}

// task is one cell awaiting (or undergoing) remote execution.
type task struct {
	spec     core.CellSpec
	done     chan taskOutcome // buffered 1; receives exactly one outcome
	finished bool             // guarded by Manager.mu
}

type taskOutcome struct {
	r   report.RunResult
	err error
}

// runnerConn is the manager's view of one connected runner.
type runnerConn struct {
	fc        *frameConn
	name      string
	binary    string
	slots     int
	platforms map[string]bool
	leases    map[uint64]*leaseState // guarded by Manager.mu
	lastGraph string                 // graph fingerprint of the last lease (affinity)
	dropped   bool                   // guarded by Manager.mu
	// suspect marks a runner whose lease timed out without progress: it
	// receives no further leases until it sends another frame (which
	// proves the process is alive, not wedged). Without this, dataset
	// affinity would re-lease the starved cell straight back to the
	// silent runner, forever.
	suspect bool // guarded by Manager.mu
}

type leaseState struct {
	t     *task
	timer *time.Timer
}

// NewManager validates opts and returns an idle manager; call Serve to
// start accepting runners.
func NewManager(opts ManagerOptions) (*Manager, error) {
	if len(opts.Platforms) == 0 {
		return nil, errors.New("dist: manager needs at least one platform spec")
	}
	if len(opts.Graphs) == 0 {
		return nil, errors.New("dist: manager needs the campaign graphs")
	}
	if opts.LeaseTimeout <= 0 {
		opts.LeaseTimeout = DefaultLeaseTimeout
	}
	if opts.Binary == "" {
		opts.Binary = stamp.BinaryVersion()
	}
	return &Manager{
		opts:     opts,
		runners:  make(map[*runnerConn]bool),
		fpGraphs: make(map[string]*graph.Graph),
		blobs:    make(map[string][]byte),
	}, nil
}

// Serve starts listening for runner connections on addr.
func (m *Manager) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: manager listen: %w", err)
	}
	m.ln = ln
	slog.Info("dist: manager listening for runners", "addr", ln.Addr().String())
	go m.acceptLoop()
	return nil
}

// Addr returns the listening address (for tests binding port 0).
func (m *Manager) Addr() net.Addr { return m.ln.Addr() }

// StatsSnapshot returns the current lease accounting.
func (m *Manager) StatsSnapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Runners = len(m.runners)
	return s
}

// Close stops accepting runners, says goodbye to the connected ones,
// and fails any still-queued cells. Call it after the campaign ends.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conns := make([]*runnerConn, 0, len(m.runners))
	for rc := range m.runners {
		conns = append(conns, rc)
	}
	queued := m.queue
	m.queue = nil
	m.mu.Unlock()

	if m.ln != nil {
		m.ln.Close()
	}
	// The runner closes its side once it drains; closing here would race
	// its read of the bye and turn a graceful shutdown into a spurious
	// connection-lost error. The manager's read loop reaps the
	// connection when the runner hangs up.
	for _, rc := range conns {
		if err := rc.fc.send(&Msg{Type: TypeBye}); err != nil {
			rc.fc.Close()
		}
	}
	for _, t := range queued {
		m.complete(t, taskOutcome{err: errors.New("dist: manager closed with cell still queued")})
	}
	return nil
}

// ExecuteCell implements core.CellExecutor: it queues the cell for the
// lease pool and blocks until some runner delivers a result, the
// context is cancelled, or the manager closes. Runner death never
// surfaces as an error here — the cell is re-leased. A delivered row
// returns with a nil error; the campaign derives the retry error from
// its status, so it sees the same error classes as local execution.
func (m *Manager) ExecuteCell(ctx context.Context, spec core.CellSpec) (report.RunResult, error) {
	t := &task{spec: spec, done: make(chan taskOutcome, 1)}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return report.RunResult{}, errors.New("dist: manager is closed")
	}
	if _, ok := m.opts.Graphs[spec.Graph]; !ok {
		m.mu.Unlock()
		return report.RunResult{}, fmt.Errorf("dist: manager has no dataset %q", spec.Graph)
	}
	m.fpGraphs[spec.GraphFP.String()] = m.opts.Graphs[spec.Graph]
	m.queue = append(m.queue, t)
	m.mu.Unlock()
	m.dispatch()

	select {
	case out := <-t.done:
		return out.r, out.err
	case <-ctx.Done():
		m.mu.Lock()
		t.finished = true
		for i, q := range m.queue {
			if q == t {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
		return report.RunResult{}, ctx.Err()
	}
}

// complete delivers a task outcome exactly once. Callers must have
// marked t.finished under the lock (or be the only possible completer).
func (m *Manager) complete(t *task, out taskOutcome) {
	select {
	case t.done <- out:
	default:
	}
}

// acceptLoop admits runner connections until the listener closes.
func (m *Manager) acceptLoop() {
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		go m.handleRunner(conn)
	}
}

// handleRunner performs the hello exchange and then serves one runner
// until its connection breaks.
func (m *Manager) handleRunner(conn net.Conn) {
	fc := newFrameConn(conn)
	hello, _, err := fc.recv()
	if err != nil || hello.Type != TypeHello {
		_ = fc.send(&Msg{Type: TypeError, Err: "expected hello"})
		fc.Close()
		return
	}
	if hello.Version != ProtocolVersion {
		_ = fc.send(&Msg{Type: TypeError,
			Err: fmt.Sprintf("protocol version %d, manager speaks %d", hello.Version, ProtocolVersion)})
		fc.Close()
		return
	}
	if err := fc.send(&Msg{Type: TypeHello, Version: ProtocolVersion, Binary: m.opts.Binary}); err != nil {
		fc.Close()
		return
	}

	rc := &runnerConn{
		fc:        fc,
		name:      hello.Runner,
		binary:    hello.Binary,
		slots:     hello.Slots,
		platforms: make(map[string]bool, len(hello.Platforms)),
		leases:    make(map[uint64]*leaseState),
	}
	if rc.name == "" {
		rc.name = conn.RemoteAddr().String()
	}
	if rc.slots <= 0 {
		rc.slots = 1
	}
	for _, p := range hello.Platforms {
		rc.platforms[p] = true
	}
	if rc.binary != m.opts.Binary {
		// Accepted but flagged: the lease pins the fingerprint identity,
		// yet kernels will run code the manager did not benchmark.
		slog.Warn("dist: runner binary differs from manager",
			"runner", rc.name, "runner_binary", rc.binary, "manager_binary", m.opts.Binary)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		_ = fc.send(&Msg{Type: TypeBye})
		fc.Close()
		return
	}
	m.runners[rc] = true
	m.waitWarned = false
	n := len(m.runners)
	m.mu.Unlock()
	telemetry.Metrics.Gauge("dist_runners", "connected campaign runners").Set(float64(n))
	slog.Info("dist: runner joined", "runner", rc.name, "slots", rc.slots,
		"platforms", hello.Platforms, "runners", n)
	m.dispatch()

	for {
		msg, _, err := fc.recv()
		if err != nil {
			m.dropRunner(rc, err)
			return
		}
		m.mu.Lock()
		wasSuspect := rc.suspect
		rc.suspect = false
		m.mu.Unlock()
		if wasSuspect {
			slog.Info("dist: suspect runner spoke again; leasing to it resumes", "runner", rc.name)
		}
		switch msg.Type {
		case TypeProgress:
			m.handleProgress(rc, msg)
		case TypeResult:
			m.handleResult(rc, msg)
		case TypeFetch:
			go m.serveFetch(rc, msg)
		case TypeBye:
			m.dropRunner(rc, nil)
			return
		default:
			slog.Debug("dist: ignoring unexpected frame", "runner", rc.name, "type", msg.Type)
		}
	}
}

// dispatch assigns queued cells to capable runners with free slots,
// preferring a runner that last worked on the same dataset (it already
// holds the graph — no artifact transfer). Sends happen outside the
// manager lock; a failed send drops the runner, which re-queues the
// cell.
func (m *Manager) dispatch() {
	for {
		m.mu.Lock()
		var (
			rc  *runnerConn
			t   *task
			idx = -1
		)
		for i, queued := range m.queue {
			if cand := m.pickRunnerLocked(queued.spec); cand != nil {
				rc, t, idx = cand, queued, i
				break
			}
		}
		if t == nil {
			if len(m.queue) > 0 && len(m.runners) == 0 && !m.waitWarned {
				m.waitWarned = true
				slog.Info("dist: cells queued, waiting for runners to connect",
					"queued", len(m.queue))
			}
			m.mu.Unlock()
			return
		}
		m.queue = append(m.queue[:idx], m.queue[idx+1:]...)
		m.nextLease++
		id := m.nextLease
		ls := &leaseState{t: t}
		ls.timer = time.AfterFunc(m.opts.LeaseTimeout, func() { m.onLeaseTimeout(rc, id) })
		rc.leases[id] = ls
		rc.lastGraph = t.spec.GraphFP.String()
		m.stats.Leases++
		lease := m.leaseFor(id, t.spec)
		runnerName := rc.name
		m.mu.Unlock()

		telemetry.Metrics.Counter("dist_leases_total", "cells leased to runners (including re-leases)").Inc()
		slog.Debug("dist: leasing cell", "lease", id, "runner", runnerName,
			"platform", t.spec.Platform, "graph", t.spec.Graph, "algorithm", string(t.spec.Algorithm))
		if err := rc.fc.send(&Msg{Type: TypeLease, Lease: lease}); err != nil {
			m.dropRunner(rc, fmt.Errorf("lease send: %w", err))
		}
	}
}

// pickRunnerLocked returns a runner with a free slot that supports the
// cell's platform, preferring dataset affinity. Callers hold m.mu.
func (m *Manager) pickRunnerLocked(spec core.CellSpec) *runnerConn {
	var fallback *runnerConn
	want := spec.GraphFP.String()
	for rc := range m.runners {
		if rc.dropped || rc.suspect || len(rc.leases) >= rc.slots || !rc.platforms[spec.Platform] {
			continue
		}
		if rc.lastGraph == want {
			return rc
		}
		if fallback == nil {
			fallback = rc
		}
	}
	return fallback
}

// leaseFor assembles the wire lease for one cell.
func (m *Manager) leaseFor(id uint64, spec core.CellSpec) *Lease {
	return &Lease{
		ID:          id,
		KeepaliveNS: int64(m.opts.LeaseTimeout / 4),
		Platform:    m.opts.Platforms[spec.Platform],
		Cell:        spec,
	}
}

// handleProgress resets the lease deadline: any sign of life from the
// leaseholder defers re-leasing.
func (m *Manager) handleProgress(rc *runnerConn, msg *Msg) {
	m.mu.Lock()
	ls, ok := rc.leases[msg.LeaseID]
	if ok {
		ls.timer.Reset(m.opts.LeaseTimeout)
	}
	m.mu.Unlock()
	if ok {
		slog.Debug("dist: progress", "runner", rc.name, "lease", msg.LeaseID,
			"phase", msg.Phase, "elapsed", time.Duration(msg.ElapsedNS), "heap", msg.HeapBytes)
	}
}

// handleResult completes the leased cell. A result for a lease that is
// no longer current (timed out and re-leased, or the task cancelled) is
// counted and dropped: exactly one outcome per cell ever reaches the
// campaign.
func (m *Manager) handleResult(rc *runnerConn, msg *Msg) {
	m.mu.Lock()
	ls, ok := rc.leases[msg.LeaseID]
	if !ok || msg.Result == nil {
		m.stats.StaleResults++
		m.mu.Unlock()
		telemetry.Metrics.Counter("dist_stale_results_total",
			"results dropped because their lease was no longer current").Inc()
		slog.Debug("dist: dropping stale result", "runner", rc.name, "lease", msg.LeaseID)
		return
	}
	delete(rc.leases, msg.LeaseID)
	ls.timer.Stop()
	t := ls.t
	if t.finished {
		m.mu.Unlock()
		return
	}
	t.finished = true
	m.mu.Unlock()

	r := *msg.Result
	slog.Debug("dist: cell result", "runner", rc.name, "lease", msg.LeaseID,
		"cell", r.Platform+"/"+r.Graph+"/"+string(r.Algorithm), "status", string(r.Status))
	m.complete(t, taskOutcome{r: r})
	m.dispatch()
}

// onLeaseTimeout fires when a lease went LeaseTimeout without progress:
// the cell is re-queued for another runner and the silent runner is
// marked suspect — still connected (it may only be wedged, and its
// eventual stale answer is dropped by handleResult), but excluded from
// dispatch until it proves itself alive with another frame.
func (m *Manager) onLeaseTimeout(rc *runnerConn, id uint64) {
	m.mu.Lock()
	ls, ok := rc.leases[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	delete(rc.leases, id)
	rc.suspect = true
	t := ls.t
	requeue := !t.finished
	if requeue {
		m.queue = append(m.queue, t)
		m.stats.Releases++
	}
	m.mu.Unlock()
	if !requeue {
		return
	}
	telemetry.Metrics.Counter("dist_releases_total",
		"cells re-leased after a runner died or stalled").Inc()
	slog.Warn("dist: lease timed out without progress; re-leasing cell",
		"runner", rc.name, "lease", id,
		"cell", t.spec.Platform+"/"+t.spec.Graph+"/"+string(t.spec.Algorithm))
	m.dispatch()
}

// dropRunner removes a dead or departing runner and re-queues its
// in-flight cells.
func (m *Manager) dropRunner(rc *runnerConn, cause error) {
	m.mu.Lock()
	if rc.dropped {
		m.mu.Unlock()
		return
	}
	rc.dropped = true
	delete(m.runners, rc)
	var requeued int
	for id, ls := range rc.leases {
		ls.timer.Stop()
		if !ls.t.finished {
			m.queue = append(m.queue, ls.t)
			m.stats.Releases++
			requeued++
		}
		delete(rc.leases, id)
	}
	n := len(m.runners)
	closed := m.closed
	m.mu.Unlock()

	rc.fc.Close()
	telemetry.Metrics.Gauge("dist_runners", "connected campaign runners").Set(float64(n))
	if requeued > 0 {
		telemetry.Metrics.Counter("dist_releases_total",
			"cells re-leased after a runner died or stalled").Add(int64(requeued))
	}
	if closed {
		return
	}
	if cause != nil && !errors.Is(cause, io.EOF) {
		slog.Warn("dist: runner lost; re-leasing its cells",
			"runner", rc.name, "requeued", requeued, "err", cause)
	} else {
		slog.Info("dist: runner left", "runner", rc.name, "requeued", requeued)
	}
	if requeued > 0 {
		m.dispatch()
	}
}

// serveFetch answers an artifact fetch: graphs from the campaign's
// datasets (serialized once, then cached in memory), ETL blobs from the
// manager's artifact cache. A miss answers Found=false — the runner
// regenerates locally.
func (m *Manager) serveFetch(rc *runnerConn, msg *Msg) {
	var payload []byte
	switch msg.Kind {
	case "graph":
		payload = m.graphBlob(msg.FP)
	case "etl":
		payload = m.etlBlob(msg.FP)
	}
	reply := &Msg{Type: TypeBlob, ReqID: msg.ReqID, Kind: msg.Kind, FP: msg.FP, Found: payload != nil}
	var err error
	if payload != nil {
		telemetry.Metrics.Counter("dist_blob_bytes_total",
			"artifact bytes served to runners").Add(int64(len(payload)))
		err = rc.fc.sendBlob(reply, payload)
	} else {
		err = rc.fc.send(reply)
	}
	if err != nil {
		m.dropRunner(rc, fmt.Errorf("blob send: %w", err))
	}
}

// graphBlob returns the serialized GALB for a dataset fingerprint,
// caching the serialization (one per dataset, not per fetch).
func (m *Manager) graphBlob(fpHex string) []byte {
	m.mu.Lock()
	if blob, ok := m.blobs[fpHex]; ok {
		m.mu.Unlock()
		return blob
	}
	g := m.fpGraphs[fpHex]
	m.mu.Unlock()
	if g == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		slog.Warn("dist: serializing graph for runner failed", "graph", g.Name(), "err", err)
		return nil
	}
	blob := buf.Bytes()
	m.mu.Lock()
	m.blobs[fpHex] = blob
	m.mu.Unlock()
	return blob
}

// etlBlob reads a cached ETL artifact for serving, or nil.
func (m *Manager) etlBlob(fpHex string) []byte {
	if m.opts.Artifacts == nil {
		return nil
	}
	fp, err := stamp.Parse(fpHex)
	if err != nil {
		return nil
	}
	rc, hit, err := m.opts.Artifacts.OpenETL(fp)
	if err != nil || !hit {
		return nil
	}
	defer rc.Close()
	blob, err := io.ReadAll(rc)
	if err != nil {
		return nil
	}
	return blob
}
