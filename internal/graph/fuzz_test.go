package graph

import (
	"bytes"
	"errors"
	"fmt"
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
