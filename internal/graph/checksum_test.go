package graph

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

func checksumTestGraph(name string) *Graph {
	return FromArcs(name, 5,
		[]VertexID{0, 1, 2, 3, 0},
		[]VertexID{1, 2, 3, 4, 4},
		nil, false, 1)
}

func TestChecksummedRoundTrip(t *testing.T) {
	g := checksumTestGraph("sum")
	var buf bytes.Buffer
	sum, err := g.WriteBinaryChecksummed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum == ([32]byte{}) {
		t.Fatal("zero checksum returned")
	}
	if err := VerifyBinary(buf.Bytes()); err != nil {
		t.Fatalf("VerifyBinary: %v", err)
	}
	back, err := ReadBinaryVerify(buf.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, back)
}

// Plain readers must keep reading checksummed images: the footer is
// trailing bytes the v1 payload parser never consumes.
func TestChecksummedBackwardCompatible(t *testing.T) {
	g := checksumTestGraph("compat")
	var buf bytes.Buffer
	if _, err := g.WriteBinaryChecksummed(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("plain ReadBinary on checksummed image: %v", err)
	}
	assertSameGraph(t, g, back)
}

func TestChecksummedDetectsCorruption(t *testing.T) {
	g := checksumTestGraph("rot")
	var buf bytes.Buffer
	if _, err := g.WriteBinaryChecksummed(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one payload byte past the header.
	data[len(data)/2] ^= 0xff
	if err := VerifyBinary(data); !errors.Is(err, ErrChecksum) {
		t.Fatalf("VerifyBinary on corrupted image = %v, want ErrChecksum", err)
	}
	if _, err := ReadBinaryVerify(data, 0); !errors.Is(err, ErrChecksum) {
		t.Fatalf("ReadBinaryVerify on corrupted image = %v, want ErrChecksum", err)
	}
}

func TestChecksummedRejectsMissingFooter(t *testing.T) {
	g := checksumTestGraph("plain")
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if err := VerifyBinary(buf.Bytes()); err == nil {
		t.Fatal("VerifyBinary accepted an unchecksummed image")
	}
}

func TestSaveLoadBinaryChecksummed(t *testing.T) {
	g := checksumTestGraph("disk")
	path := filepath.Join(t.TempDir(), "g.galb")
	if _, err := g.SaveBinaryChecksummed(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBinaryVerify(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, back)
}

func TestContentHash(t *testing.T) {
	a := checksumTestGraph("same")
	b := checksumTestGraph("same")
	ha, err := a.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatal("equal graphs hash differently")
	}
	c := checksumTestGraph("other")
	hc, err := c.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if ha == hc {
		t.Fatal("renamed graph hashes equal — name must be part of the content")
	}
}
