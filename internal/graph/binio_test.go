package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func roundTripBinary(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumArcs() != b.NumArcs() || a.Directed() != b.Directed() {
		t.Fatalf("shape differs: %v vs %v", a, b)
	}
	if a.Name() != b.Name() {
		t.Fatalf("name differs: %q vs %q", a.Name(), b.Name())
	}
	for v := 0; v < a.NumVertices(); v++ {
		if !reflect.DeepEqual(a.OutNeighbors(VertexID(v)), b.OutNeighbors(VertexID(v))) {
			t.Fatalf("adjacency of %d differs", v)
		}
		if a.Label(VertexID(v)) != b.Label(VertexID(v)) {
			t.Fatalf("label of %d differs", v)
		}
	}
}

func TestBinaryRoundTripDirected(t *testing.T) {
	g := randomTestGraph(200, 900, 3, true)
	g.SetName("bin-directed")
	back := roundTripBinary(t, g)
	assertSameGraph(t, g, back)
	if !back.HasReverse() {
		t.Error("reverse adjacency not rebuilt")
	}
	if !reflect.DeepEqual(back.InNeighbors(5), g.InNeighbors(5)) {
		t.Error("reverse adjacency differs")
	}
}

func TestBinaryRoundTripUndirected(t *testing.T) {
	g := randomTestGraph(150, 500, 5, false)
	g.SetName("bin-undirected")
	back := roundTripBinary(t, g)
	assertSameGraph(t, g, back)
	if back.Directed() {
		t.Error("directedness lost")
	}
}

func TestBinaryRoundTripLabels(t *testing.T) {
	b := NewBuilder(Directed(false), WithName("labeled"))
	b.AddEdge(1000, -5)
	b.AddEdge(-5, 99)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	back := roundTripBinary(t, g)
	assertSameGraph(t, g, back)
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("GALB\x02\x00\x00"),               // bad version
		[]byte("GALB\x01\x00\x00\x05\x00"),       // degree sum mismatch
		append([]byte("GALB\x01\x00\x00"), 0xff), // truncated varints
	}
	for i, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Degree-sum mismatch specifically returns ErrBadFormat.
	var buf bytes.Buffer
	buf.WriteString("GALB")
	buf.WriteByte(1)
	buf.WriteByte(0)
	buf.WriteByte(0) // name len 0
	buf.WriteByte(2) // n = 2
	buf.WriteByte(9) // arcs = 9 (will not match degrees)
	buf.WriteByte(1) // deg(0) = 1
	buf.WriteByte(1) // deg(1) = 1
	if _, err := ReadBinary(&buf); !errors.Is(err, ErrBadFormat) {
		t.Errorf("degree mismatch err = %v", err)
	}
}

// galbImage assembles a GALB image with an empty name: the n and arcs
// header varints, then the body varints as given.
func galbImage(flags byte, varints ...uint64) []byte {
	b := append([]byte(binMagic), 1, flags, 0)
	for _, v := range varints {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// hostileGALB are headers and bodies whose counts the input does not
// back: each must end in ErrBadFormat without allocating what it claims.
var hostileGALB = []struct {
	name string
	data []byte
}{
	{"zero vertices", galbImage(0, 0, 0)},
	{"n=2^32 without degrees", galbImage(0, 1<<32, 0)},
	{"arcs=deg=2^34 without edges", galbImage(0, 1, 1<<34, 1<<34)},
	{"weighted arcs=deg=2^34 without edges", galbImage(8, 1, 1<<34, 1<<34)},
	{"degree sum wraps to the arc count", galbImage(0, 2, 0, 1<<63, 1<<63, 0)},
	{"edge delta wraps below n", galbImage(0, 2, 2, 2, 0, 1, math.MaxUint64)},
	{"truncated weights", galbImage(8, 2, 1, 1, 0, 1)},
	{"truncated labels", galbImage(2, 1, 0, 0)},
}

func TestBinaryRejectsHostileCounts(t *testing.T) {
	for _, tc := range hostileGALB {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadBinary(bytes.NewReader(tc.data))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, want ErrBadFormat", err)
			}
			// The read buffer (1 MiB) plus capped up-front capacities.
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
				t.Errorf("allocated %d bytes for a %d-byte input", alloc, len(tc.data))
			}
		})
	}
}

// The 9-byte header of a 0-vertex graph is refused as the empty graph
// the other loaders refuse, not handed to kernels that divide by |V|.
func TestBinaryRejectsEmptyGraph(t *testing.T) {
	_, err := ReadBinary(bytes.NewReader(galbImage(0, 0, 0)))
	if !errors.Is(err, ErrBadFormat) || !errors.Is(err, ErrEmptyGraph) {
		t.Fatalf("err = %v, want ErrBadFormat and ErrEmptyGraph", err)
	}
}

// Arrays that outgrow the up-front capacity still decode exactly.
func TestBinaryRoundTripBeyondPrealloc(t *testing.T) {
	g := randomTestGraph(maxPrealloc+500, 3*maxPrealloc, 11, true)
	if diff := graphDiff(g, roundTripBinary(t, g)); diff != "" {
		t.Fatal(diff)
	}
}

func TestBinaryCompactness(t *testing.T) {
	// The binary form should be several times smaller than the text form
	// for a realistic graph.
	g := randomTestGraph(1000, 8000, 9, false)
	var bin, txt bytes.Buffer
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(&txt); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len() {
		t.Errorf("binary %d bytes !< text %d bytes", bin.Len(), txt.Len())
	}
}

// Property: binary round trip is the identity on arbitrary graphs.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		g := randomTestGraph(60, 240, seed, directed)
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			return false
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if back.NumVertices() != g.NumVertices() || back.NumArcs() != g.NumArcs() {
			return false
		}
		for v := 0; v < g.NumVertices(); v++ {
			if !reflect.DeepEqual(back.OutNeighbors(VertexID(v)), g.OutNeighbors(VertexID(v))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
