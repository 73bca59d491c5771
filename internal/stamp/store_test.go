package stamp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func openTestStore(t *testing.T, path string) *Store {
	t.Helper()
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreGetMissing(t *testing.T) {
	s := openTestStore(t, filepath.Join(t.TempDir(), "stamps.jsonl"))
	got := storedResult{Runtime: 7}
	ok, err := s.Get(Dataset("absent", "1"), &got)
	if ok || err != nil {
		t.Fatalf("Get(missing) = %v, %v; want false, nil", ok, err)
	}
	if got.Runtime != 7 {
		t.Fatalf("Get(missing) overwrote the destination: %+v", got)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// A stamp without a value records only that the fingerprint was
// produced; it must still be present after a reload.
func TestStoreNilValue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stamps.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fp := Dataset("marker", "1")
	if err := s.Put(fp, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTestStore(t, path)
	if !s2.Has(fp) {
		t.Fatal("value-less stamp lost on reload")
	}
	var got storedResult
	if ok, err := s2.Get(fp, &got); !ok || err != nil {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if ok, err := s2.Get(fp, nil); !ok || err != nil {
		t.Fatalf("Get(nil dst) = %v, %v", ok, err)
	}
}

// Lines that are not JSON, carry no fingerprint, or carry an
// unparseable one are skipped; the intact entries around them load.
func TestStoreSkipsMalformedLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stamps.jsonl")
	a, b := Dataset("a", "1"), Dataset("b", "1")
	content := fmt.Sprintf(`{"fp":%q,"value":{"runtime":1}}`+"\n"+
		"not json\n"+
		`{"value":{"runtime":9}}`+"\n"+
		`{"fp":"zz","value":{"runtime":9}}`+"\n"+
		"\n"+
		`{"fp":%q,"value":{"runtime":2}}`+"\n", a, b)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t, path)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	var got storedResult
	if ok, err := s.Get(b, &got); !ok || err != nil || got.Runtime != 2 {
		t.Fatalf("Get(b) = %v, %v, %+v", ok, err, got)
	}
	// A complete file (even one with malformed lines) is never cut.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != content {
		t.Fatalf("opening rewrote a newline-terminated store:\n%s", data)
	}
}

// A store whose only line is torn is cut back to empty, and the next
// Put starts at the beginning of the file.
func TestStoreTornOnlyLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stamps.jsonl")
	if err := os.WriteFile(path, []byte(`{"fp":"de`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("torn line not truncated: %v, %v", fi, err)
	}
	fp := Dataset("c", "1")
	if err := s.Put(fp, storedResult{Runtime: 5}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(`{"fp":"`+fp.String())) || bytes.Count(data, []byte("\n")) != 1 {
		t.Fatalf("store after torn-only line = %q", data)
	}
	if s2 := openTestStore(t, path); !s2.Has(fp) {
		t.Fatal("entry lost on reload")
	}
}

// A stored value that does not decode into the destination is reported
// as present with an error, not as absent.
func TestStoreGetDecodeError(t *testing.T) {
	s := openTestStore(t, filepath.Join(t.TempDir(), "stamps.jsonl"))
	fp := Dataset("d", "1")
	if err := s.Put(fp, "not an object"); err != nil {
		t.Fatal(err)
	}
	var got storedResult
	ok, err := s.Get(fp, &got)
	if !ok || err == nil {
		t.Fatalf("Get = %v, %v; want true and a decode error", ok, err)
	}
	if !strings.Contains(err.Error(), fp.Short()) {
		t.Fatalf("decode error does not name the entry: %v", err)
	}
}

// Concurrent Puts (parallel cells finishing together) each land on a
// line of their own.
func TestStoreConcurrentPuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stamps.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				fp := Dataset("cell", fmt.Sprintf("%d/%d", w, i))
				if err := s.Put(fp, storedResult{Runtime: int64(w*each + i)}); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()

	s2 := openTestStore(t, path)
	if s2.Len() != workers*each {
		t.Fatalf("reloaded Len = %d, want %d", s2.Len(), workers*each)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < each; i++ {
			var got storedResult
			ok, err := s2.Get(Dataset("cell", fmt.Sprintf("%d/%d", w, i)), &got)
			if !ok || err != nil || got.Runtime != int64(w*each+i) {
				t.Fatalf("cell %d/%d: %v, %v, %+v", w, i, ok, err, got)
			}
		}
	}
}

// A Put that cannot reach the disk fails and leaves the in-memory view
// unchanged, so the store never claims a stamp it did not persist.
func TestStorePutAfterCloseFails(t *testing.T) {
	s, err := OpenStore(filepath.Join(t.TempDir(), "stamps.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	fp := Dataset("late", "1")
	if err := s.Put(fp, storedResult{Runtime: 1}); err == nil {
		t.Fatal("Put on a closed store succeeded")
	}
	if s.Has(fp) || s.Len() != 0 {
		t.Fatal("failed Put recorded the stamp in memory")
	}
}

func TestStoreOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenStore(dir); err == nil {
		t.Error("opening a directory as a store succeeded")
	}
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(filepath.Join(file, "stamps.jsonl")); err == nil {
		t.Error("opening a store under a regular file succeeded")
	}
}

// FuzzStampStoreOpen opens a store from arbitrary file bytes, as given
// (possibly ending in a torn line) and, when framed is set, with a
// newline appended so every line is complete. Opening never fails or
// panics, whatever the lines hold. Every fingerprint the store holds
// answers Get, into a generic and into a typed destination, with a
// value or a decode error, and a value Get returns survives a Put into
// a fresh store and a reopen unchanged.
func FuzzStampStoreOpen(f *testing.F) {
	fp := Dataset("fuzz", "1").String()
	for _, seed := range []string{
		"",
		fmt.Sprintf(`{"fp":%q,"value":{"runtime":1,"status":"success"}}`+"\n", fp),
		fmt.Sprintf(`{"fp":%q,"value":null}`+"\n", fp),
		fmt.Sprintf(`{"fp":%q}`+"\n", fp),
		fmt.Sprintf(`{"fp":%q,"value":{"status":"failed"}}`+"\n", fp),
		fmt.Sprintf(`{"fp":%q,"value":"text"}`+"\n"+`{"fp":%q,"value":[1,{"a":null}]}`+"\n", fp, fp),
		fmt.Sprintf(`{"fp":%q,"value":{"runtime":1e400}}`+"\n", fp),
		fmt.Sprintf(`{"fp":%q,"value":{"runtime":"7"}}`+"\n"+`{"fp":"de`, fp),
		`{"fp":"zz","value":1}` + "\n" + `{"fp":12}` + "\nnot json\n",
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		if framed {
			data = append(data, '\n')
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "stamps.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openTestStore(t, path)
		for fp := range s.entries {
			if !s.Has(fp) {
				t.Fatalf("%s: held but Has is false", fp.Short())
			}
			var typed storedResult
			if ok, _ := s.Get(fp, &typed); !ok {
				t.Fatalf("%s: held but Get into a struct reports it absent", fp.Short())
			}
			var v any
			ok, err := s.Get(fp, &v)
			if !ok {
				t.Fatalf("%s: held but Get reports it absent", fp.Short())
			}
			if err != nil {
				continue
			}
			fresh := filepath.Join(dir, "fresh-"+fp.Short()+".jsonl")
			s2, err := OpenStore(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.Put(fp, v); err != nil {
				t.Fatalf("%s: Put of the value Get returned: %v", fp.Short(), err)
			}
			s2.Close()
			s3 := openTestStore(t, fresh)
			var w any
			if ok, err := s3.Get(fp, &w); !ok || err != nil || !reflect.DeepEqual(v, w) {
				t.Fatalf("%s: round trip gave %v, %v, %#v; want %#v", fp.Short(), ok, err, w, v)
			}
		}
	})
}
