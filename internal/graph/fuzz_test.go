package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// FuzzParseEdgeLine fuzzes the .e line parser and differentially
// checks the loader against the reference reader (readByLines) on a
// small file built from the line: same error text or byte-identical
// graph, at one and at four workers.
func FuzzParseEdgeLine(f *testing.F) {
	for _, seed := range []string{
		"1 2",
		"1\t2",
		"# comment",
		"% also a comment",
		"",
		"   ",
		"1 2 0.5",
		"1 2 0.5 1234567890", // trailing property column
		"1 2\r",              // CRLF
		"1 2 3.25\r",
		"999999999999 3",  // sparse IDs
		"-5 7",            // negative IDs
		"3,4,1.5",         // comma separators
		"1 2 banana",      // malformed weight
		"0 1 -1",          // negative weight
		"0 1 NaN",         // non-finite weight
		"0 1 +Inf",        // non-finite weight
		"7 8 1e-3",        // scientific notation
		"x y",             // malformed line
		"5",               // missing dst
		"+1 +2 +0.0",      // explicit signs
		"00 01 00.5",      // leading zeros
		"1 2 0.5,extra",   // comma after weight
		"\t 9 \t 10 \t 2", // whitespace soup
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		// The line parser must never panic, whatever the bytes.
		l, err := splitEdgeLine([]byte(line))
		if err == nil && l.data && l.weightField != nil {
			_, _ = l.weight()
		}

		// Differential: a file of the line repeated (so the second
		// occurrence also exercises the post-decision path) must load
		// as the reference reader loads it.
		data := line + "\n" + line + "\n"
		want, wantErr := readByLines(strings.NewReader(data), nil, LoadOptions{})
		for _, workers := range []int{1, 4} {
			got, gotErr := ReadGraph(strings.NewReader(data), nil, LoadOptions{Workers: workers})
			sameOutcome(t, fmt.Sprintf("workers=%d", workers), want, wantErr, got, gotErr)
		}
	})
}

// FuzzLoadMatchesReference checks the loader against the reference
// reader (readByLines) on whole .e texts, with and without a .v text:
// same error text or byte-identical graph, at workers 1, 2, 3 and 8.
// Its seeds are .v-less loads whose IDs repeat across chunks, .v files
// that miss endpoints in several chunks or repeat a line, and a .v ID
// whose first edge comes late.
func FuzzLoadMatchesReference(f *testing.F) {
	for _, seed := range [][2]string{
		{"500 7\n7 -3\n-3 500\n900 901\n901 42\n7 42\n", "901\n-3\n901\n"},
		{"1 2\n3 4\n-1 1\n5 -1\n-2 -1\n9 -2\n", "1\n2\n3\n4\n5\n9\n"},
		{"1 2 0.5\n2 3 1\n3 1 2\n", "3 name\n1\n3\n2\n1\n"},
		{"1 2\n2 1\n1 1\n2 2\n7 1\n", "1\n2\n7\n"},
		{"1 2\n# comment\n\n3 4 1.5\n", "1\nbad\n"},
		{"", "4\n"},
		{"1 2\n", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, edges, vertices string) {
		for _, withV := range []bool{false, true} {
			vr := func() io.Reader {
				if !withV {
					return nil
				}
				return strings.NewReader(vertices)
			}
			want, wantErr := readByLines(strings.NewReader(edges), vr(), LoadOptions{})
			for _, workers := range []int{1, 2, 3, 8} {
				got, gotErr := ReadGraph(strings.NewReader(edges), vr(), LoadOptions{Workers: workers})
				sameOutcome(t, fmt.Sprintf("vertices=%v/workers=%d", withV, workers), want, wantErr, got, gotErr)
			}
		}
	})
}

// FuzzTextRoundTrip decodes the input into a small graph (see
// decodeTextGraph) and checks the .e writer at one and three workers
// and the .v writer against the fmt-based reference writers, then loads
// the written text back and compares content hashes.
func FuzzTextRoundTrip(f *testing.F) {
	f.Add([]byte{0, 4, 2, 1, 4, 1, 2, 3, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{1, 3, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 3, 5, 0, 1, 1, 0, 2, 2})
	f.Add([]byte{3, 6, 1, 2, 3, 4, 5, 6, 0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5, 4, 5, 0, 200})
	f.Add([]byte{2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeTextGraph(data)
		CheckWriterMatchesReference(t, g, 1, 3)
		var e, v bytes.Buffer
		if err := g.WriteEdgeList(&e); err != nil {
			t.Fatal(err)
		}
		if err := g.WriteVertexList(&v); err != nil {
			t.Fatal(err)
		}
		back, err := ReadGraph(&e, &v, LoadOptions{Directed: g.directed, Name: g.name})
		if err != nil {
			t.Fatalf("reading the written text: %v", err)
		}
		want, err := g.ContentHash()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := back.ContentHash(); err != nil || got != want {
			t.Fatalf("round trip changed the graph: %v became %v (err %v)", g, back, err)
		}
	})
}

// weightTable holds the weights whose shortest 'g' text is easy to get
// wrong; decodeTextGraph draws a weight byte below len(weightTable)
// from it and any other byte b as b/7.
var weightTable = []float64{0, 5e-324, 0.1, 1e300, 1.0 / 3, math.MaxFloat64, 1e-7, 123456789.125}

// decodeTextGraph builds a graph through FromArcs from fuzz bytes:
// data[0] bit 0 = directed, bit 1 = weighted; data[1] picks 1–16
// vertices; then one zigzag varint label per vertex (a repeated label
// moves up to the next unused value; missing labels are the vertex
// number); then one arc per two bytes (three when weighted). Arcs that
// the loader would merge are dropped (a repeated directed arc), and a
// graph without arcs is unweighted, as its text reads back.
func decodeTextGraph(data []byte) *Graph {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	flags, _ := next()
	directed, weighted := flags&1 != 0, flags&2 != 0
	nb, _ := next()
	n := 1 + int(nb%16)
	labels := make([]int64, n)
	used := make(map[int64]bool, n)
	for v := range labels {
		l, k := binary.Varint(data)
		if k <= 0 {
			l = int64(v)
		} else {
			data = data[k:]
		}
		for used[l] {
			l++
		}
		used[l] = true
		labels[v] = l
	}
	var srcs, dsts []VertexID
	var ws []float64
	seen := make(map[[2]VertexID]bool)
	for len(data) >= 2 {
		u, _ := next()
		v, _ := next()
		w := 1.0
		if weighted {
			b, ok := next()
			if !ok {
				break
			}
			w = float64(b) / 7
			if int(b) < len(weightTable) {
				w = weightTable[b]
			}
		}
		arc := [2]VertexID{VertexID(int(u) % n), VertexID(int(v) % n)}
		if directed && seen[arc] {
			continue
		}
		seen[arc] = true
		srcs, dsts, ws = append(srcs, arc[0]), append(dsts, arc[1]), append(ws, w)
	}
	if !weighted || len(srcs) == 0 {
		ws = nil
	}
	g := FromArcs("fuzz", n, srcs, dsts, ws, directed, 1)
	g.labels = labels
	return g
}

// FuzzReadBinary fuzzes the GALB reader: every input ends in
// ErrBadFormat or in a graph of at least one vertex that serializes back
// to an image the reader decodes to the same bytes again.
func FuzzReadBinary(f *testing.F) {
	b := NewBuilder(Directed(true), WithReverse(), WithName("fuzz"))
	b.AddEdgeWeighted(10, 20, 0.5)
	b.AddEdgeWeighted(20, -3, 2)
	b.AddEdgeWeighted(-3, 10, 1)
	b.AddEdgeWeighted(-3, -3, 0)
	g, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := g.WriteBinary(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, tc := range hostileGALB {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinaryWorkers(bytes.NewReader(data), 2)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("error is not ErrBadFormat: %v", err)
			}
			return
		}
		if g.NumVertices() == 0 {
			t.Fatal("accepted a graph with no vertices")
		}
		var first, second bytes.Buffer
		if err := g.WriteBinary(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinaryWorkers(bytes.NewReader(first.Bytes()), 2)
		if err != nil {
			t.Fatalf("re-reading an accepted graph: %v", err)
		}
		if err := back.WriteBinary(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("accepted graph does not round-trip")
		}
	})
}
