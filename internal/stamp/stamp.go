package stamp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime/debug"
	"sync"

	"graphalytics/internal/graph"
)

// Fingerprint is a SHA-256 content address.
type Fingerprint [32]byte

// String returns the full lowercase hex form.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first 12 hex characters — enough to key log lines
// and cache file names without collisions in practice while
// keeping keys readable.
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:])[:12] }

// IsZero reports whether f is the zero fingerprint (meaning "unset").
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// Parse decodes a full-hex fingerprint.
func Parse(s string) (Fingerprint, error) {
	var f Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(f) {
		return f, fmt.Errorf("stamp: bad fingerprint %q", s)
	}
	copy(f[:], b)
	return f, nil
}

// MarshalText encodes f in its full hex form, so fingerprints travel
// in JSON as strings.
func (f Fingerprint) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText decodes the full hex form; anything Parse rejects is
// an error.
func (f *Fingerprint) UnmarshalText(b []byte) error {
	fp, err := Parse(string(b))
	*f = fp
	return err
}

// Hasher accumulates labeled fields into a fingerprint. Every field is
// written length-prefixed so no concatenation of values is ambiguous
// ("ab"+"c" never hashes like "a"+"bc"), and the domain separates
// fingerprint kinds (a cell fingerprint can never collide with an ETL
// fingerprint over the same inputs).
type Hasher struct {
	h hash.Hash
}

// NewHasher returns a Hasher in the given domain ("cell", "etl",
// "dataset", ...).
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.Field("domain", domain)
	return h
}

// Field adds one labeled string field.
func (h *Hasher) Field(name, value string) {
	var pre [8]byte
	binary.LittleEndian.PutUint32(pre[:4], uint32(len(name)))
	binary.LittleEndian.PutUint32(pre[4:], uint32(len(value)))
	h.h.Write(pre[:])
	h.h.Write([]byte(name))
	h.h.Write([]byte(value))
}

// Fingerprint adds a nested fingerprint as a field.
func (h *Hasher) Fingerprint(name string, fp Fingerprint) {
	h.Field(name, fp.String())
}

// Sum finalizes the fingerprint.
func (h *Hasher) Sum() Fingerprint {
	var f Fingerprint
	copy(f[:], h.h.Sum(nil))
	return f
}

// JSON canonicalizes any value for fingerprinting via encoding/json
// (struct fields marshal in declaration order, so equal values always
// produce equal bytes within one binary; a struct change is a code
// change, which the binary-version field invalidates anyway).
func JSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Fingerprint inputs are plain parameter structs; a marshal
		// failure is a programming error, not a runtime condition.
		panic(fmt.Sprintf("stamp: unmarshalable fingerprint input: %v", err))
	}
	return string(b)
}

// OfGraph fingerprints a graph by content: the full CSR (direction,
// name, adjacency, weights, labels) via the deterministic GALB
// serialization. Two graphs hash equal iff they serialize identically.
// This is the fallback dataset fingerprint when no generator spec is
// known; generated datasets prefer Dataset over the cheaper-to-compare
// generator parameters.
func OfGraph(g *graph.Graph) (Fingerprint, error) {
	h := NewHasher("graph-content")
	if err := g.WriteBinary(hashWriter{h.h}); err != nil {
		return Fingerprint{}, err
	}
	return h.Sum(), nil
}

type hashWriter struct{ h hash.Hash }

func (w hashWriter) Write(p []byte) (int, error) { return w.h.Write(p) }

// Dataset fingerprints a dataset by its generator identity: the
// generator kind ("social", "rmat", "file", ...) plus the canonical
// parameter string the generator's Config.Stamp() produces (seed,
// sizes, weights flag, distribution — everything that changes the
// output, nothing that does not, like worker counts).
func Dataset(kind, params string) Fingerprint {
	h := NewHasher("dataset")
	h.Field("kind", kind)
	h.Field("params", params)
	return h.Sum()
}

// CellInputs is everything that determines a matrix cell's result.
type CellInputs struct {
	// Graph is the dataset fingerprint (generator params or content).
	Graph Fingerprint
	// Workload is the workload identity: name + validation policy.
	Workload string
	// Params is the canonical algorithm parameter string (after
	// defaults, so parameter-default changes invalidate too).
	Params string
	// Platform is the platform name.
	Platform string
	// PlatformConfig is the platform's configuration stamp (worker
	// budget, memory budget, engine knobs).
	PlatformConfig string
	// Binary is the binary / kernel version (BinaryVersion() unless
	// overridden).
	Binary string
}

// Cell fingerprints one matrix cell.
func Cell(in CellInputs) Fingerprint {
	h := NewHasher("cell")
	h.Fingerprint("graph", in.Graph)
	h.Field("workload", in.Workload)
	h.Field("params", in.Params)
	h.Field("platform", in.Platform)
	h.Field("platform-config", in.PlatformConfig)
	h.Field("binary", in.Binary)
	return h.Sum()
}

// ETL fingerprints one (platform, graph) ETL artifact: the dataset, the
// platform identity and configuration, the platform's ETL encoding
// version, and the binary version.
func ETL(graphFP Fingerprint, platformName, platformConfig, etlVersion, binary string) Fingerprint {
	h := NewHasher("etl")
	h.Fingerprint("graph", graphFP)
	h.Field("platform", platformName)
	h.Field("platform-config", platformConfig)
	h.Field("etl-version", etlVersion)
	h.Field("binary", binary)
	return h.Sum()
}

var binaryVersionOnce struct {
	sync.Once
	v string
}

// BinaryVersion identifies the running binary for fingerprinting: the
// main module version plus the VCS revision (and a dirty marker) from
// the embedded build info. Binaries built from different code report
// different versions, so stale stamped results are never reused across
// kernel changes; a dev build without VCS info degrades to the module
// version string, which is stable within one working tree.
func BinaryVersion() string {
	binaryVersionOnce.Do(func() {
		v := "dev"
		if info, ok := debug.ReadBuildInfo(); ok {
			v = info.Main.Version
			var rev, dirty string
			for _, s := range info.Settings {
				switch s.Key {
				case "vcs.revision":
					rev = s.Value
				case "vcs.modified":
					if s.Value == "true" {
						dirty = "+dirty"
					}
				}
			}
			if rev != "" {
				v += "@" + rev + dirty
			}
		}
		binaryVersionOnce.v = v
	})
	return binaryVersionOnce.v
}
