package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/artifact"
	"graphalytics/internal/core"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platform/graphdb"
	"graphalytics/internal/platform/platformtest"
	"graphalytics/internal/platform/pregel"
	"graphalytics/internal/report"
	"graphalytics/internal/stamp"
)

func testGraph(t *testing.T, n int, name string) *graph.Graph {
	t.Helper()
	g, err := datagen.Generate(datagen.Config{Persons: n, Seed: 1, Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// --- protocol ---

func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	fa, fb := newFrameConn(a), newFrameConn(b)
	defer fa.Close()
	defer fb.Close()

	go func() {
		_ = fa.send(&Msg{Type: TypeHello, Runner: "r1", Platforms: []string{"pregel"}, Slots: 2, Version: ProtocolVersion})
		_ = fa.sendBlob(&Msg{Type: TypeBlob, ReqID: 7, Kind: "graph", Found: true}, []byte("payload-bytes"))
		_ = fa.send(&Msg{Type: TypeBlob, ReqID: 8, Kind: "etl", Found: false})
	}()

	m, _, err := fb.recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeHello || m.Runner != "r1" || m.Slots != 2 || len(m.Platforms) != 1 {
		t.Fatalf("hello round-trip mangled: %+v", m)
	}
	m, payload, err := fb.recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.ReqID != 7 || !m.Found || !bytes.Equal(payload, []byte("payload-bytes")) {
		t.Fatalf("blob round-trip mangled: %+v payload=%q", m, payload)
	}
	m, payload, err = fb.recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.ReqID != 8 || m.Found || payload != nil {
		t.Fatalf("not-found blob mangled: %+v payload=%q", m, payload)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// rawFrame prefixes body with a frame header announcing n bytes.
func rawFrame(n uint32, body string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, n), body...)
}

// A length prefix within the limits but far beyond the bytes that follow
// must end in an error without allocating what it announces.
func TestFrameHostileLengthPrefix(t *testing.T) {
	blob := func(size int64) string {
		return fmt.Sprintf(`{"type":"blob","found":true,"size":%d}`, size)
	}
	cases := []struct {
		name   string
		stream []byte
	}{
		{"frame-max-empty", rawFrame(maxFrame, "")},
		{"frame-max-short", rawFrame(maxFrame, `{"type":"hello"}`)},
		{"blob-4GiB-empty", rawFrame(uint32(len(blob(4<<30))), blob(4<<30))},
		{"blob-max-short", append(rawFrame(uint32(len(blob(maxBlob))), blob(maxBlob)), "payload"...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fc := &frameConn{r: bytes.NewReader(c.stream)}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := fc.recv()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("truncated stream accepted")
			}
			if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
				t.Errorf("allocated %d bytes for a %d-byte stream", d, len(c.stream))
			}
		})
	}
}

// FuzzFrameRecv feeds arbitrary byte streams to the frame reader: every
// input ends in frames or an error, never a panic, and a blob's payload
// is exactly the size its frame announced.
func FuzzFrameRecv(f *testing.F) {
	var valid bytes.Buffer
	fc := &frameConn{w: &valid}
	for _, m := range []*Msg{
		{Type: TypeHello, Runner: "r1", Platforms: []string{"pregel", "graphdb"}, Slots: 2, Binary: "v1", Version: ProtocolVersion},
		{Type: TypeLease, Lease: &Lease{ID: 1, KeepaliveNS: 1e9, Platform: PlatformSpec{Name: "pregel", Workers: 2},
			Cell: core.CellSpec{Platform: "pregel", Graph: "g", Algorithm: algo.BFS, Reps: 2,
				GraphFP: stamp.Dataset("test", "g"), CellFP: stamp.Dataset("test", "cell"), GraphEdges: 10}}},
		{Type: TypeResult, LeaseID: 1, Result: &report.RunResult{Platform: "pregel", Graph: "g",
			Algorithm: algo.BFS, Status: report.StatusSuccess, Runtime: time.Millisecond}},
	} {
		if err := fc.send(m); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), valid.Bytes()...))
	}
	if err := fc.sendBlob(&Msg{Type: TypeBlob, ReqID: 7, Kind: "graph", Found: true}, []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(rawFrame(maxFrame, ""))
	f.Add(rawFrame(0, ""))
	blob := `{"type":"blob","found":true,"size":4294967296}`
	f.Add(rawFrame(uint32(len(blob)), blob))
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := &frameConn{r: bytes.NewReader(data)}
		for {
			m, payload, err := fc.recv()
			if err != nil {
				return
			}
			if m.Type == TypeBlob && m.Found && int64(len(payload)) != m.Size {
				t.Fatalf("blob announced %d bytes, delivered %d", m.Size, len(payload))
			}
		}
	})
}

// A lease round-trips through a frame with its cell recipe intact, and
// a fingerprint one hex digit short fails frame decoding instead of
// reaching a runner as some other content address.
func TestFrameLeaseFingerprints(t *testing.T) {
	lease := &Lease{ID: 3, Platform: PlatformSpec{Name: "pregel", Workers: 2},
		Cell: core.CellSpec{Platform: "pregel", Graph: "g", Algorithm: algo.BFS, Timeout: time.Second,
			GraphFP: stamp.Dataset("test", "g"), CellFP: stamp.Dataset("test", "cell"), Binary: "v2"}}
	var buf bytes.Buffer
	if err := writeFrame(&buf, &Msg{Type: TypeLease, Lease: lease}); err != nil {
		t.Fatal(err)
	}
	body := buf.String()[4:]
	m, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Lease == nil || m.Lease.Cell != lease.Cell || m.Lease.Platform != lease.Platform {
		t.Fatalf("lease round-trip mangled: %+v", m.Lease)
	}

	fp := lease.Cell.CellFP.String()
	short := strings.Replace(body, fp, fp[:63], 1)
	if short == body {
		t.Fatalf("cell fingerprint %s not found in frame %s", fp, body)
	}
	if m, err := readFrame(bytes.NewReader(rawFrame(uint32(len(short)), short))); err == nil {
		t.Fatalf("63-hex fingerprint decoded: %+v", m.Lease)
	}
}

// --- distributed campaign helpers ---

// startManager builds a manager for the given platforms/graphs on a
// random localhost port.
func startManager(t *testing.T, plats []platform.Platform, graphs []*graph.Graph, leaseTimeout time.Duration) *Manager {
	t.Helper()
	specs := make(map[string]PlatformSpec, len(plats))
	for _, p := range plats {
		specs[p.Name()] = PlatformSpec{Name: p.Name()}
	}
	byName := make(map[string]*graph.Graph, len(graphs))
	for _, g := range graphs {
		byName[g.Name()] = g
	}
	mgr, err := NewManager(ManagerOptions{Platforms: specs, Graphs: byName, LeaseTimeout: leaseTimeout})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return mgr
}

// startRunner connects a real in-process runner with its own cache.
func startRunner(t *testing.T, ctx context.Context, addr, name string, slots int) {
	t.Helper()
	startRunnerWith(t, ctx, addr, RunnerOptions{Name: name, Slots: slots}, BuildPlatform)
}

// startRunnerWith is startRunner with the runner's options and the
// constructor it builds leased platforms with.
func startRunnerWith(t *testing.T, ctx context.Context, addr string, opts RunnerOptions, build func(PlatformSpec) (platform.Platform, error)) {
	t.Helper()
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stamps, err := stamp.OpenStore(cache.StampStorePath())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stamps.Close() })
	opts.Cache, opts.Stamps = cache, stamps
	r, err := Connect(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.build = build
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	t.Cleanup(func() {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("runner did not exit after manager close")
		}
	})
}

// normalize strips everything time- or machine-dependent from a result
// row and renders it as canonical JSON, so reports from local and
// distributed runs can be compared byte-for-byte: coordinates, status,
// validation, structural metadata and every counter but WorkerBusy must
// match; runtimes, samples, and provenance may not.
func normalize(t *testing.T, rs []report.RunResult) []string {
	t.Helper()
	out := make([]string, len(rs))
	for i, r := range rs {
		r.Runtime = 0
		r.LoadTime = 0
		r.KTEPS = 0
		r.Reps = nil
		r.Resources = nil
		r.Attempts = 0
		r.Provenance = ""
		r.Counters.WorkerBusy = nil
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// --- end-to-end ---

// TestDistributedMatchesLocal runs the same small matrix locally and
// through a manager with two runner processes, and requires the
// collated reports to agree on everything except runtimes.
func TestDistributedMatchesLocal(t *testing.T) {
	g := testGraph(t, 250, "distsmoke")
	algs := []algo.Kind{algo.BFS, algo.CONN, algo.STATS}
	mkBench := func() *core.Benchmark {
		return &core.Benchmark{
			// graphdb exercises the ETL artifact path, pregel the plain
			// in-memory load path.
			Platforms:  []platform.Platform{pregel.New(pregel.Options{}), graphdb.New(graphdb.Options{})},
			Graphs:     []*graph.Graph{g},
			Algorithms: algs,
			Validate:   true,
			Params:     algo.Params{Source: 0, Seed: 3},
		}
	}

	local, err := mkBench().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bench := mkBench()
	mgr := startManager(t, bench.Platforms, bench.Graphs, 0)
	addr := mgr.Addr().String()
	startRunner(t, ctx, addr, "r1", 2)
	startRunner(t, ctx, addr, "r2", 2)
	bench.Executor = mgr

	remote, err := bench.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	ln, rn := normalize(t, local.Results), normalize(t, remote.Results)
	if len(ln) != len(rn) {
		t.Fatalf("result counts differ: local %d, distributed %d", len(ln), len(rn))
	}
	for i := range ln {
		if ln[i] != rn[i] {
			t.Errorf("cell %d differs:\n local: %s\nremote: %s", i, ln[i], rn[i])
		}
	}
	for _, r := range remote.Results {
		if r.Status != report.StatusSuccess {
			t.Errorf("%s: status %s (%s)", r.Cell(), r.Status, r.Err)
		}
		if r.Runtime <= 0 {
			t.Errorf("%s: runtime not recorded", r.Cell())
		}
	}
}

// TestDistributedPanicsFailCells runs the fault-injection platform
// beside pregel through a manager and two runners. The runners turn
// every panic into a failed row and go on serving leases; the manager
// records those rows after one attempt although the campaign grants
// two retries, and every other cell is the one a local campaign without
// the faulty platform records.
func TestDistributedPanicsFailCells(t *testing.T) {
	graphs := []*graph.Graph{testGraph(t, 200, "social"), testGraph(t, 120, "poison")}
	faulty := &platformtest.Faulty{Platform: pregel.New(pregel.Options{}),
		LoadPanics: "poison", RunPanics: algo.CONN, WorkerPanics: algo.PR}
	mkBench := func(plats ...platform.Platform) *core.Benchmark {
		return &core.Benchmark{
			Platforms:  plats,
			Graphs:     graphs,
			Algorithms: []algo.Kind{algo.BFS, algo.CONN, algo.PR},
			Validate:   true,
			Retries:    2,
			Params:     algo.Params{Source: 0, Seed: 3},
		}
	}
	clean, err := mkBench(pregel.New(pregel.Options{})).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	bench := mkBench(pregel.New(pregel.Options{}), faulty)
	mgr := startManager(t, bench.Platforms, bench.Graphs, 0)
	build := func(spec PlatformSpec) (platform.Platform, error) {
		if spec.Name == faulty.Name() {
			return faulty, nil
		}
		return BuildPlatform(spec)
	}
	for _, name := range []string{"r1", "r2"} {
		startRunnerWith(t, ctx, mgr.Addr().String(), RunnerOptions{Name: name, Slots: 1,
			Platforms: append([]string{faulty.Name()}, AllPlatforms...)}, build)
	}
	bench.Executor = mgr
	remote, err := bench.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	platformtest.CheckFaultyCampaign(t, faulty, remote.Results, clean.Results)
}

// TestDistributedResumeRestoresFromStore runs a distributed campaign
// into a stamped result store, then re-runs it through a manager with no
// runners at all: every cell must restore from the store, uptodate, so
// the second campaign finishes without leasing anything.
func TestDistributedResumeRestoresFromStore(t *testing.T) {
	g := testGraph(t, 150, "distresume")
	path := filepath.Join(t.TempDir(), "stamps.jsonl")
	mkBench := func() *core.Benchmark {
		stamps, err := stamp.OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { stamps.Close() })
		return &core.Benchmark{
			Platforms:  []platform.Platform{pregel.New(pregel.Options{})},
			Graphs:     []*graph.Graph{g},
			Algorithms: []algo.Kind{algo.BFS, algo.CONN},
			Validate:   true,
			Stamps:     stamps,
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	first := mkBench()
	mgr := startManager(t, first.Platforms, first.Graphs, 0)
	startRunner(t, ctx, mgr.Addr().String(), "r1", 2)
	first.Executor = mgr
	rep1, err := first.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	for _, r := range rep1.Results {
		if r.Status != report.StatusSuccess || r.Provenance == report.ProvenanceUptodate {
			t.Fatalf("first campaign %s: %s, provenance %q", r.Cell(), r.Status, r.Provenance)
		}
	}

	second := mkBench()
	idle := startManager(t, second.Platforms, second.Graphs, 0)
	second.Executor = idle
	restoreCtx, cancelRestore := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelRestore()
	rep2, err := second.Run(restoreCtx)
	if err != nil {
		t.Fatalf("resumed campaign with no runners: %v (a cell was leased instead of restored)", err)
	}
	if len(rep2.Results) != len(rep1.Results) {
		t.Fatalf("resumed report has %d results, want %d", len(rep2.Results), len(rep1.Results))
	}
	for i, r := range rep2.Results {
		if r.Status != report.StatusSuccess || r.Provenance != report.ProvenanceUptodate {
			t.Errorf("%s: %s, provenance %q; want success, uptodate", r.Cell(), r.Status, r.Provenance)
		}
		if r.Runtime != rep1.Results[i].Runtime {
			t.Errorf("%s: restored runtime %v, want %v", r.Cell(), r.Runtime, rep1.Results[i].Runtime)
		}
	}
}

// fakeRunner speaks the raw protocol so tests can misbehave precisely.
type fakeRunner struct {
	fc     *frameConn
	leases chan *Lease
}

func dialFake(t *testing.T, addr, name string, platforms []string) *fakeRunner {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFrameConn(conn)
	err = fc.send(&Msg{Type: TypeHello, Runner: name, Platforms: platforms, Slots: 1, Version: ProtocolVersion})
	if err != nil {
		t.Fatal(err)
	}
	reply, _, err := fc.recv()
	if err != nil || reply.Type != TypeHello {
		t.Fatalf("fake runner handshake failed: %v %+v", err, reply)
	}
	f := &fakeRunner{fc: fc, leases: make(chan *Lease, 4)}
	go func() {
		for {
			m, _, err := fc.recv()
			if err != nil {
				close(f.leases)
				return
			}
			if m.Type == TypeLease {
				f.leases <- m.Lease
			}
		}
	}()
	return f
}

func (f *fakeRunner) awaitLease(t *testing.T) *Lease {
	t.Helper()
	select {
	case l, ok := <-f.leases:
		if !ok {
			t.Fatal("fake runner connection closed before lease arrived")
		}
		return l
	case <-time.After(10 * time.Second):
		t.Fatal("no lease arrived at fake runner")
	}
	return nil
}

// TestRunnerDeathReleasesCell kills a runner mid-lease (connection
// drop) and asserts the cell is re-leased to a healthy runner and
// lands in the report exactly once.
func TestRunnerDeathReleasesCell(t *testing.T) {
	g := testGraph(t, 150, "deathsmoke")
	bench := &core.Benchmark{
		Platforms:  []platform.Platform{pregel.New(pregel.Options{})},
		Graphs:     []*graph.Graph{g},
		Algorithms: []algo.Kind{algo.BFS},
		Validate:   true,
	}
	mgr := startManager(t, bench.Platforms, bench.Graphs, 0)
	addr := mgr.Addr().String()

	// The doomed runner is the only one connected, so it gets the lease.
	doomed := dialFake(t, addr, "doomed", []string{"pregel"})

	bench.Executor = mgr
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	benchDone := make(chan *report.Report, 1)
	benchErr := make(chan error, 1)
	go func() {
		rep, err := bench.Run(ctx)
		benchErr <- err
		benchDone <- rep
	}()

	lease := doomed.awaitLease(t)
	if lease.Cell.Graph != "deathsmoke" || lease.Cell.Algorithm != algo.BFS {
		t.Fatalf("unexpected lease: %+v", lease)
	}
	doomed.fc.Close() // mid-lease death

	// A healthy runner picks up the re-leased cell.
	startRunner(t, ctx, addr, "healthy", 1)

	if err := <-benchErr; err != nil {
		t.Fatal(err)
	}
	rep := <-benchDone
	if len(rep.Results) != 1 {
		t.Fatalf("results = %d, want exactly 1", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Status != report.StatusSuccess || !r.Validation.Valid {
		t.Fatalf("re-leased cell: status %s (%s)", r.Status, r.Err)
	}
	if s := mgr.StatsSnapshot(); s.Releases < 1 || s.Leases < 2 {
		t.Errorf("stats = %+v, want >=1 release and >=2 leases", s)
	}
}

// TestLeaseTimeoutDropsZombieResult starves a lease of progress until
// the manager re-leases it, then has the zombie deliver its result
// late and asserts the zombie's row never reaches the report.
func TestLeaseTimeoutDropsZombieResult(t *testing.T) {
	g := testGraph(t, 150, "zombiesmoke")
	bench := &core.Benchmark{
		Platforms:  []platform.Platform{pregel.New(pregel.Options{})},
		Graphs:     []*graph.Graph{g},
		Algorithms: []algo.Kind{algo.BFS},
	}
	mgr := startManager(t, bench.Platforms, bench.Graphs, 300*time.Millisecond)
	addr := mgr.Addr().String()

	zombie := dialFake(t, addr, "zombie", []string{"pregel"})

	bench.Executor = mgr
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	benchDone := make(chan *report.Report, 1)
	benchErr := make(chan error, 1)
	go func() {
		rep, err := bench.Run(ctx)
		benchErr <- err
		benchDone <- rep
	}()

	lease := zombie.awaitLease(t)
	// Silence: no progress, no result — the manager re-leases after
	// 300ms. Then connect a healthy runner to execute it for real.
	time.Sleep(600 * time.Millisecond)
	startRunner(t, ctx, addr, "healthy", 1)

	if err := <-benchErr; err != nil {
		t.Fatal(err)
	}
	rep := <-benchDone

	// The zombie wakes up and delivers a poison row for its dead lease.
	poison := &report.RunResult{
		Platform: "pregel", Graph: "zombiesmoke", Algorithm: algo.BFS,
		Status: report.StatusError, Err: "ZOMBIE",
	}
	if err := zombie.fc.send(&Msg{Type: TypeResult, LeaseID: lease.ID, Result: poison}); err != nil {
		t.Fatalf("zombie send: %v", err)
	}
	// The drop is synchronous with the manager's read loop; poll the
	// counter briefly.
	deadline := time.Now().Add(5 * time.Second)
	for mgr.StatsSnapshot().StaleResults == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	if len(rep.Results) != 1 {
		t.Fatalf("results = %d, want exactly 1", len(rep.Results))
	}
	if r := rep.Results[0]; r.Status != report.StatusSuccess || r.Err == "ZOMBIE" {
		t.Fatalf("zombie result reached the report: %+v", r)
	}
	s := mgr.StatsSnapshot()
	if s.StaleResults < 1 {
		t.Errorf("stale result was not counted: %+v", s)
	}
	if s.Releases < 1 {
		t.Errorf("lease timeout did not release the cell: %+v", s)
	}
}

// TestRunnerReusesCachedGraph asserts the second campaign against the
// same runner cache skips the graph transfer (the content-addressed
// artifact store is shared between leases and campaigns).
func TestRunnerReusesCachedGraph(t *testing.T) {
	g := testGraph(t, 150, "cachesmoke")
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := stamp.OfGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.StoreGraph(fp, g); err != nil {
		t.Fatal(err)
	}
	stamps, err := stamp.OpenStore(cache.StampStorePath())
	if err != nil {
		t.Fatal(err)
	}
	defer stamps.Close()

	bench := &core.Benchmark{
		Platforms:  []platform.Platform{pregel.New(pregel.Options{})},
		Graphs:     []*graph.Graph{g},
		Algorithms: []algo.Kind{algo.BFS},
	}
	mgr := startManager(t, bench.Platforms, bench.Graphs, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := Connect(mgr.Addr().String(), RunnerOptions{Name: "warm", Cache: cache, Stamps: stamps})
	if err != nil {
		t.Fatal(err)
	}
	go r.Run(ctx)

	bench.Executor = mgr
	rep, err := bench.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Status != report.StatusSuccess {
		t.Fatalf("warm-cache cell failed: %+v", rep.Results[0])
	}
	// The graph was pre-seeded: the manager must not have served it.
	if n := mgr.StatsSnapshot(); n.Leases != 1 {
		t.Errorf("leases = %d, want 1", n.Leases)
	}
}
