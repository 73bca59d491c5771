package artifact

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/stamp"
)

func testGraph(name string) *graph.Graph {
	return graph.FromArcs(name, 5,
		[]graph.VertexID{0, 1, 2, 3},
		[]graph.VertexID{1, 2, 3, 4},
		nil, false, 1)
}

func openCache(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGraphStoreLoadRoundTrip(t *testing.T) {
	c := openCache(t)
	c.Verify = true
	g := testGraph("cached")
	fp := stamp.Dataset("test", "g=1")

	if got, hit, err := c.LoadGraph(fp, 0); got != nil || hit || err != nil {
		t.Fatalf("empty cache: %v, %v, %v", got, hit, err)
	}
	if err := c.StoreGraph(fp, g); err != nil {
		t.Fatal(err)
	}
	back, hit, err := c.LoadGraph(fp, 0)
	if err != nil || !hit {
		t.Fatalf("LoadGraph = hit=%v err=%v", hit, err)
	}
	if back.Name() != g.Name() || back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("restored graph differs: %v vs %v", back, g)
	}
}

// A corrupted graph artifact must surface as an error (so the caller
// regenerates), never as a silently wrong graph.
func TestGraphVerifyOnReadDetectsCorruption(t *testing.T) {
	c := openCache(t)
	c.Verify = true
	fp := stamp.Dataset("test", "g=2")
	if err := c.StoreGraph(fp, testGraph("rot")); err != nil {
		t.Fatal(err)
	}
	path := c.GraphPath(fp)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.LoadGraph(fp, 0); err == nil {
		t.Fatal("corrupted graph artifact loaded without error")
	}
	// Overwrite repairs the artifact.
	if err := c.StoreGraph(fp, testGraph("rot")); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := c.LoadGraph(fp, 0); !hit || err != nil {
		t.Fatalf("after repair: hit=%v err=%v", hit, err)
	}
}

func TestETLStoreOpenRoundTrip(t *testing.T) {
	c := openCache(t)
	c.Verify = true
	fp := stamp.ETL(stamp.Dataset("test", "g=3"), "graphdb", "cfg", "v1", "bin")

	if _, hit, err := c.OpenETL(fp); hit || err != nil {
		t.Fatalf("empty cache: hit=%v err=%v", hit, err)
	}
	// A failed write leaves nothing under the final name, nor a stray
	// temporary file beside it.
	if err := c.StoreETL(fp, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return errors.New("injected write failure")
	}); err == nil || !strings.HasPrefix(err.Error(), "artifact: ") {
		t.Fatalf("failed StoreETL: err = %v, want an artifact: error", err)
	}
	if left, err := os.ReadDir(c.Dir() + "/etl"); err != nil || len(left) != 0 {
		t.Fatalf("failed StoreETL left %v (err %v)", left, err)
	}
	if _, hit, err := c.OpenETL(fp); hit || err != nil {
		t.Fatalf("after a failed store: hit=%v err=%v", hit, err)
	}
	blob := "platform-defined ETL payload"
	if err := c.StoreETL(fp, func(w io.Writer) error {
		_, err := io.WriteString(w, blob)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Artifacts get the mode saved graphs get, not CreateTemp's 0600.
	for _, path := range []string{etlPath(c.Dir(), fp), etlPath(c.Dir(), fp) + ".sum"} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().Perm() != 0o644 {
			t.Errorf("%s: mode %v, want 0644", path, info.Mode().Perm())
		}
	}
	rc, hit, err := c.OpenETL(fp)
	if err != nil || !hit {
		t.Fatalf("OpenETL = hit=%v err=%v", hit, err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(got) != blob {
		t.Fatalf("restored blob %q err=%v", got, err)
	}
}

func TestETLVerifyOnReadDetectsCorruption(t *testing.T) {
	c := openCache(t)
	c.Verify = true
	fp := stamp.ETL(stamp.Dataset("test", "g=4"), "graphdb", "cfg", "v1", "bin")
	if err := c.StoreETL(fp, func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	path := etlPath(c.Dir(), fp)
	if err := os.WriteFile(path, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.OpenETL(fp)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered ETL blob: err = %v, want checksum mismatch", err)
	}
}

// Without Verify, reads skip hashing but a clean miss still reports
// (nil, false, nil).
func TestETLNoVerifyPath(t *testing.T) {
	c := openCache(t)
	fp := stamp.ETL(stamp.Dataset("test", "g=5"), "graphdb", "cfg", "v1", "bin")
	if _, hit, err := c.OpenETL(fp); hit || err != nil {
		t.Fatalf("miss: hit=%v err=%v", hit, err)
	}
	if err := c.StoreETL(fp, func(w io.Writer) error {
		_, err := io.WriteString(w, "x")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rc, hit, err := c.OpenETL(fp)
	if err != nil || !hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	rc.Close()
}
