package jsonlog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzLog opens arbitrary file bytes with a replay that rejects lines
// starting with '!'. Open either fails, naming the first rejected line
// and leaving the file as it was, or replays every complete line once,
// in order, after which an Append survives a reopen. It never panics.
func FuzzLog(f *testing.F) {
	for _, seed := range []string{
		"",
		"{\"a\":1}\n{\"a\":2}\n",
		"{\"a\":1}\n{\"a\"",
		"torn",
		"ok\n!bad\ntorn",
		"\n\n\n",
		"!\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		complete := data[:bytes.LastIndexByte(data, '\n')+1]
		var want [][]byte
		rejected := 0 // 1-based line of the first rejected line, 0 = none
		if len(complete) > 0 {
			for i, line := range bytes.Split(complete[:len(complete)-1], []byte("\n")) {
				if bytes.HasPrefix(line, []byte("!")) {
					rejected = i + 1
					break
				}
				want = append(want, line)
			}
		}

		var got [][]byte
		replay := func(line []byte) error {
			if bytes.HasPrefix(line, []byte("!")) {
				return errors.New("rejected")
			}
			got = append(got, bytes.Clone(line))
			return nil
		}
		l, err := Open(path, replay)
		if rejected > 0 {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", rejected)) {
				t.Fatalf("Open = %v, want an error naming line %d", err, rejected)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatalf("rejected file modified: %q -> %q", data, after)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("replayed %q, want %q", got, want)
		}
		if err := l.Append(map[string]int{"n": len(want)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got = nil
		l, err = Open(path, replay)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		want = append(want, []byte(fmt.Sprintf(`{"n":%d}`, len(want))))
		if !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("after Append, replayed %q, want %q", got, want)
		}
	})
}

// Open creates a missing file and its directory.
func TestOpenCreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a", "b", "log.jsonl")
	l, err := Open(path, func([]byte) error { t.Fatal("replayed a line of a new log"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("new log: %v, %v", fi, err)
	}
}

// After a failed Append the file may end mid-line, so the log refuses
// every later Append instead of writing a record onto the fragment.
func TestAppendFailureIsSticky(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "log.jsonl"), func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	l.f.Close()
	first := l.Append(1)
	if first == nil {
		t.Fatal("Append on a closed file succeeded")
	}
	if err := l.Append(2); err != first {
		t.Fatalf("second Append = %v, want the first failure %v", err, first)
	}
	if err := l.Append(make(chan int)); err == nil {
		t.Fatal("Append of an unmarshalable value succeeded")
	}
}
