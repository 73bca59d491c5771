package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"graphalytics/internal/core"
	"graphalytics/internal/report"
)

// ProtocolVersion is the dist wire protocol version. A manager rejects
// runners speaking a different version during the hello exchange; bump
// it whenever a message or the framing changes incompatibly.
const ProtocolVersion = 2

// maxFrame bounds one JSON frame (not blob payloads, which are bounded
// separately by maxBlob). Control messages are small; a larger frame is
// a corrupt stream or a port collision, not a bigger campaign.
const maxFrame = 16 << 20

// maxBlob bounds one artifact transfer (a serialized graph or ETL
// blob).
const maxBlob = int64(8) << 30

// maxPrealloc caps the buffer allocated for a frame body or blob payload
// before any of it has been read. maxFrame and maxBlob bound what a
// length prefix may announce; the buffer grows only with bytes actually
// received, so a hostile prefix costs an error, not its announced size.
const maxPrealloc = 64 << 10

// Message types. Every frame is one Msg; the "blob" frame is followed
// by exactly Size raw bytes of artifact payload outside the JSON.
const (
	// TypeHello opens a connection in both directions: the runner
	// announces its capabilities (platforms, slots, binary fingerprint),
	// the manager answers with its own identity and accepts or rejects.
	TypeHello = "hello"
	// TypeLease assigns one matrix cell to a runner (manager → runner).
	TypeLease = "lease"
	// TypeProgress is the runner's keepalive for an in-flight lease:
	// phase, elapsed time, and a coarse monitor sample. Receiving it
	// resets the manager's lease timeout.
	TypeProgress = "progress"
	// TypeResult delivers the finished cell (runner → manager): the full
	// report.RunResult including repetition statistics and provenance.
	TypeResult = "result"
	// TypeFetch requests a missing artifact by content address (runner →
	// manager): Kind "graph" or "etl", FP the fingerprint hex.
	TypeFetch = "fetch"
	// TypeBlob answers a fetch (manager → runner). When Found, exactly
	// Size raw payload bytes follow the frame on the wire.
	TypeBlob = "blob"
	// TypeBye announces a graceful close. The manager sends it when the
	// campaign is over; a runner that receives it drains and exits.
	TypeBye = "bye"
	// TypeError reports a fatal protocol-level problem before closing.
	TypeError = "error"
)

// Msg is the wire envelope: one JSON object per length-prefixed frame.
// Fields are a union over message types; unused fields stay empty and
// are omitted from the encoding.
type Msg struct {
	Type string `json:"type"`

	// hello (runner → manager): capabilities.
	Runner    string   `json:"runner,omitempty"`
	Platforms []string `json:"platforms,omitempty"`
	Slots     int      `json:"slots,omitempty"`
	// hello (both directions): identity and compatibility.
	Binary  string `json:"binary,omitempty"`
	Version int    `json:"version,omitempty"`

	// lease (manager → runner).
	Lease *Lease `json:"lease,omitempty"`

	// progress / result (runner → manager).
	LeaseID   uint64            `json:"lease_id,omitempty"`
	Phase     string            `json:"phase,omitempty"`
	ElapsedNS int64             `json:"elapsed_ns,omitempty"`
	HeapBytes uint64            `json:"heap_bytes,omitempty"`
	Result    *report.RunResult `json:"result,omitempty"`

	// fetch / blob.
	ReqID uint64 `json:"req_id,omitempty"`
	Kind  string `json:"kind,omitempty"`
	FP    string `json:"fp,omitempty"`
	Found bool   `json:"found,omitempty"`
	Size  int64  `json:"size,omitempty"`

	// error / bye.
	Err string `json:"err,omitempty"`
}

// Lease is one cell assignment: the platform construction recipe plus
// the cell recipe exactly as the campaign planned it — coordinates,
// parameters, the repetition protocol, the dataset's content address
// and the fingerprint identity that keeps manager- and runner-side
// stamp stores coherent.
type Lease struct {
	ID uint64 `json:"id"`
	// KeepaliveNS is how often the runner must send progress to keep
	// the lease alive (derived from the manager's lease timeout).
	KeepaliveNS int64 `json:"keepalive_ns,omitempty"`
	// Platform carries the engine construction parameters, so every
	// runner builds an identical platform.
	Platform PlatformSpec `json:"platform"`
	// Cell is the cell to run. A runner that does not hold the dataset
	// Cell.GraphFP addresses fetches it from the manager over this same
	// connection.
	Cell core.CellSpec `json:"cell"`
}

// PlatformSpec is the constructor recipe for one platform: everything a
// runner needs to build an engine whose configuration stamp equals the
// manager's.
type PlatformSpec struct {
	// Name selects the engine ("pregel", "mapreduce", "dataflow",
	// "graphdb").
	Name string `json:"name"`
	// Memory is the engine memory budget in bytes (0 = unlimited).
	Memory int64 `json:"memory,omitempty"`
	// Workers is the kernel worker budget (pregel BSP workers,
	// mapreduce slots, dataflow partitions). 0 means the building
	// process's GOMAXPROCS, so a driver resolves it before shipping the
	// spec, or runners with other core counts would build other engines.
	// graphdb is single-threaded by design and ignores it.
	Workers int `json:"workers,omitempty"`
}

// frameConn wraps a duplex stream with length-prefixed JSON framing:
// each frame is a 4-byte big-endian payload length followed by one
// JSON-encoded Msg. Blob payloads ride as raw bytes immediately after
// their announcing frame, written under the same lock so concurrent
// senders can never interleave a frame into the middle of a payload.
// Reads are single-consumer (one read loop per connection); writes are
// safe for concurrent use.
type frameConn struct {
	r  io.Reader
	w  io.Writer
	c  io.Closer
	wm sync.Mutex
}

func newFrameConn(rwc io.ReadWriteCloser) *frameConn {
	return &frameConn{r: rwc, w: rwc, c: rwc}
}

// send writes one frame.
func (fc *frameConn) send(m *Msg) error {
	fc.wm.Lock()
	defer fc.wm.Unlock()
	return writeFrame(fc.w, m)
}

// sendBlob writes a blob frame followed by its raw payload atomically
// with respect to other senders.
func (fc *frameConn) sendBlob(m *Msg, payload []byte) error {
	m.Size = int64(len(payload))
	fc.wm.Lock()
	defer fc.wm.Unlock()
	if err := writeFrame(fc.w, m); err != nil {
		return err
	}
	_, err := fc.w.Write(payload)
	return err
}

// recv reads the next frame. For a found blob frame it also consumes
// the raw payload so the stream stays in sync whether or not anyone is
// waiting for the bytes.
func (fc *frameConn) recv() (*Msg, []byte, error) {
	m, err := readFrame(fc.r)
	if err != nil {
		return nil, nil, err
	}
	if m.Type == TypeBlob && m.Found {
		if m.Size < 0 || m.Size > maxBlob {
			return nil, nil, fmt.Errorf("dist: blob size %d out of range", m.Size)
		}
		payload, err := readN(fc.r, m.Size)
		if err != nil {
			return nil, nil, fmt.Errorf("dist: reading blob payload: %w", err)
		}
		return m, payload, nil
	}
	return m, nil, nil
}

func (fc *frameConn) Close() error { return fc.c.Close() }

func writeFrame(w io.Writer, m *Msg) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dist: encoding %s frame: %w", m.Type, err)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

func readFrame(r io.Reader) (*Msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("dist: frame length %d out of range", n)
	}
	body, err := readN(r, int64(n))
	if err != nil {
		return nil, err
	}
	var m Msg
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("dist: decoding frame: %w", err)
	}
	return &m, nil
}

// readN reads exactly n bytes from r into a buffer that starts at most
// maxPrealloc bytes large and grows with the bytes read. A stream that
// ends early is io.ErrUnexpectedEOF.
func readN(r io.Reader, n int64) ([]byte, error) {
	var buf bytes.Buffer
	// MinRead of headroom lets ReadFrom see EOF without regrowing.
	buf.Grow(int(min(n, maxPrealloc)) + bytes.MinRead)
	if _, err := io.CopyN(&buf, r, n); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}
