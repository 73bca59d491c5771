package graph

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
)

// Checksummed GALB: the artifact cache stores graphs with a content
// hash computed on write, so a cached graph can be verified on read
// before a corrupted file silently poisons a campaign. The layout is
// the v1 GALB payload followed by a footer:
//
//	sumMagic "GASH" (4 bytes)
//	sha256   32 bytes (over the payload, footer excluded)
//
// Plain ReadBinary still reads checksummed files (it consumes exactly
// the payload and ignores trailing bytes), so the footer is backward
// compatible; LoadBinaryVerify additionally recomputes and compares
// the hash.

const sumMagic = "GASH"

// ErrChecksum reports a checksummed binary graph whose content hash no
// longer matches its payload (bit rot, truncation, tampering).
var ErrChecksum = errors.New("graph: content checksum mismatch")

// WriteBinaryChecksummed serializes g to w with a trailing content
// checksum and returns the payload's SHA-256.
func (g *Graph) WriteBinaryChecksummed(w io.Writer) ([32]byte, error) {
	h := sha256.New()
	if err := g.WriteBinary(io.MultiWriter(w, h)); err != nil {
		return [32]byte{}, err
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	if _, err := w.Write([]byte(sumMagic)); err != nil {
		return sum, err
	}
	_, err := w.Write(sum[:])
	return sum, err
}

// SaveBinaryChecksummed writes the graph to path in the checksummed
// binary format and returns the payload's SHA-256. The file appears
// under path only once it is complete (see WriteFileAtomic).
func (g *Graph) SaveBinaryChecksummed(path string) (sum [32]byte, err error) {
	err = WriteFileAtomic(path, func(w io.Writer) (err error) {
		sum, err = g.WriteBinaryChecksummed(w)
		return err
	})
	return sum, err
}

// splitChecksummed separates a checksummed binary image into payload
// and stored sum.
func splitChecksummed(data []byte) (payload []byte, sum [32]byte, err error) {
	footer := len(sumMagic) + len(sum)
	if len(data) < footer {
		return nil, sum, fmt.Errorf("%w: file too short for checksum footer", ErrBadFormat)
	}
	cut := len(data) - footer
	if string(data[cut:cut+len(sumMagic)]) != sumMagic {
		return nil, sum, fmt.Errorf("%w: missing checksum footer", ErrBadFormat)
	}
	copy(sum[:], data[cut+len(sumMagic):])
	return data[:cut], sum, nil
}

// VerifyBinary checks a checksummed binary graph image without parsing
// it: it recomputes the payload hash and compares it to the footer.
func VerifyBinary(data []byte) error {
	payload, want, err := splitChecksummed(data)
	if err != nil {
		return err
	}
	if sha256.Sum256(payload) != want {
		return ErrChecksum
	}
	return nil
}

// ReadBinaryVerify deserializes a checksummed binary graph image after
// verifying its content hash. workers parallelizes the reverse
// rebuild as in ReadBinaryWorkers (<= 0 uses GOMAXPROCS).
func ReadBinaryVerify(data []byte, workers int) (*Graph, error) {
	if err := VerifyBinary(data); err != nil {
		return nil, err
	}
	payload, _, _ := splitChecksummed(data)
	return ReadBinaryWorkers(bytes.NewReader(payload), workers)
}

// LoadBinaryVerify reads a checksummed binary graph file, verifying
// the content hash before parsing.
func LoadBinaryVerify(path string, workers int) (*Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadBinaryVerify(data, workers)
}

// ContentHash returns the SHA-256 of the graph's deterministic binary
// serialization — the content fingerprint the incremental campaign
// engine uses when no generator identity is known. Equal hashes mean
// byte-identical CSR structure (direction, name, adjacency, weights,
// labels).
func (g *Graph) ContentHash() ([32]byte, error) {
	h := sha256.New()
	if err := g.WriteBinary(h); err != nil {
		return [32]byte{}, err
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}
