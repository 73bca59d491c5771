package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"graphalytics/internal/graph"
	"graphalytics/internal/stamp"
	"graphalytics/internal/telemetry"
)

// Cache is a content-addressed artifact store rooted at one directory.
type Cache struct {
	dir string
	// Verify enables verify-on-read: graph artifacts recompute their
	// GALB content checksum, ETL blobs are checked against their .sum
	// sidecar. Off by default (the formats' own parsers already catch
	// gross corruption; full verification costs one hash pass per read).
	Verify bool
}

// Open prepares the cache directories under dir.
func Open(dir string) (*Cache, error) {
	for _, sub := range []string{"graphs", "etl"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("artifact: creating cache: %w", err)
		}
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// StampStorePath returns the path of the stamped result store that
// lives alongside the artifacts.
func (c *Cache) StampStorePath() string { return filepath.Join(c.dir, "stamps.jsonl") }

// GraphPath returns the artifact path of a dataset fingerprint.
func (c *Cache) GraphPath(fp stamp.Fingerprint) string {
	return filepath.Join(c.dir, "graphs", fp.String()+".galb")
}

func etlPath(dir string, fp stamp.Fingerprint) string {
	return filepath.Join(dir, "etl", fp.String()+".bin")
}

// LoadGraph fetches the graph stored under fp. It returns (nil, false,
// nil) on a clean miss and a non-nil error when the artifact exists but
// is unreadable or fails verification — the caller regenerates and
// overwrites in both of the latter cases.
func (c *Cache) LoadGraph(fp stamp.Fingerprint, workers int) (*graph.Graph, bool, error) {
	path := c.GraphPath(fp)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		counter("artifact_graph_misses_total", "graph artifact cache misses").Inc()
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("artifact: reading graph %s: %w", fp.Short(), err)
	}
	sp := telemetry.StartSpan("artifact", "graph-load:"+fp.Short())
	defer sp.End()
	var g *graph.Graph
	if c.Verify {
		g, err = graph.ReadBinaryVerify(data, workers)
	} else {
		g, err = graph.ReadBinaryWorkers(readerOf(data), workers)
	}
	if err != nil {
		counter("artifact_verify_failures_total", "artifacts that failed verification or parsing on read").Inc()
		return nil, false, fmt.Errorf("artifact: graph %s: %w", fp.Short(), err)
	}
	counter("artifact_graph_hits_total", "graph artifact cache hits").Inc()
	return g, true, nil
}

// StoreGraph writes g under fp (checksummed, atomically). An existing
// artifact is overwritten — the fingerprint names the content, so a
// rewrite is only ever a repair.
func (c *Cache) StoreGraph(fp stamp.Fingerprint, g *graph.Graph) error {
	sp := telemetry.StartSpan("artifact", "graph-store:"+fp.Short())
	defer sp.End()
	if err := graph.WriteFileAtomic(c.GraphPath(fp), func(w io.Writer) error {
		_, err := g.WriteBinaryChecksummed(w)
		return err
	}); err != nil {
		return fmt.Errorf("artifact: storing graph %s: %w", fp.Short(), err)
	}
	return nil
}

// OpenETL fetches the ETL blob stored under fp. Returns (nil, false,
// nil) on a clean miss; with Verify set, the blob is hashed against its
// .sum sidecar first and a mismatch is an error (treat as corrupt and
// regenerate).
func (c *Cache) OpenETL(fp stamp.Fingerprint) (io.ReadCloser, bool, error) {
	path := etlPath(c.dir, fp)
	if c.Verify {
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			counter("artifact_etl_misses_total", "ETL artifact cache misses").Inc()
			return nil, false, nil
		}
		if err != nil {
			return nil, false, fmt.Errorf("artifact: reading ETL %s: %w", fp.Short(), err)
		}
		want, err := os.ReadFile(path + ".sum")
		if err != nil {
			counter("artifact_verify_failures_total", "artifacts that failed verification or parsing on read").Inc()
			return nil, false, fmt.Errorf("artifact: ETL %s: missing checksum sidecar: %w", fp.Short(), err)
		}
		if got := sha256.Sum256(data); hex.EncodeToString(got[:]) != string(want) {
			counter("artifact_verify_failures_total", "artifacts that failed verification or parsing on read").Inc()
			return nil, false, fmt.Errorf("artifact: ETL %s: checksum mismatch", fp.Short())
		}
		counter("artifact_etl_hits_total", "ETL artifact cache hits").Inc()
		return io.NopCloser(readerOf(data)), true, nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		counter("artifact_etl_misses_total", "ETL artifact cache misses").Inc()
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("artifact: reading ETL %s: %w", fp.Short(), err)
	}
	counter("artifact_etl_hits_total", "ETL artifact cache hits").Inc()
	return f, true, nil
}

// StoreETL writes an ETL blob under fp via the platform-provided write
// function, atomically, with a checksum sidecar computed on write.
func (c *Cache) StoreETL(fp stamp.Fingerprint, write func(io.Writer) error) error {
	sp := telemetry.StartSpan("artifact", "etl-store:"+fp.Short())
	defer sp.End()
	path := etlPath(c.dir, fp)
	h := sha256.New()
	if err := graph.WriteFileAtomic(path, func(w io.Writer) error {
		return write(io.MultiWriter(w, h))
	}); err != nil {
		return fmt.Errorf("artifact: storing ETL %s: %w", fp.Short(), err)
	}
	sum := h.Sum(nil)
	if err := graph.WriteFileAtomic(path+".sum", func(w io.Writer) error {
		_, err := io.WriteString(w, hex.EncodeToString(sum))
		return err
	}); err != nil {
		return fmt.Errorf("artifact: storing ETL %s checksum: %w", fp.Short(), err)
	}
	return nil
}

func counter(name, help string) *telemetry.Counter {
	return telemetry.Metrics.Counter(name, help)
}

func readerOf(data []byte) *bytes.Reader { return bytes.NewReader(data) }
