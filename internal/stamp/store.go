package stamp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Store is the stamped result store: an append-only file of JSON lines
// mapping fingerprints to finished results. It is the campaign's one
// cell-result store: it answers "has any campaign — an earlier one, or
// an interrupted run of this one — produced this exact cell" (keyed by
// content address), which is what makes an interrupted campaign resume
// and turns a re-run of an unchanged matrix into a no-op that still
// renders complete reports. A torn final line (crash mid-write) is cut
// off on reopen, so the next Put starts a fresh line; malformed lines
// are skipped; a re-recorded fingerprint overrides earlier entries
// (last write wins).
type Store struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	entries map[Fingerprint]json.RawMessage
}

// storeEntry is the on-disk line format.
type storeEntry struct {
	FP    string          `json:"fp"`
	Value json.RawMessage `json:"value,omitempty"`
}

// OpenStore loads the stamped result store at path (creating it and
// its parent directory if absent), truncates a torn final line, and
// opens it for appending.
func OpenStore(path string) (*Store, error) {
	s := &Store{path: path, entries: make(map[Fingerprint]json.RawMessage)}
	if data, err := os.ReadFile(path); err == nil {
		if n := len(data); n > 0 && data[n-1] != '\n' {
			// A crash mid-Put left a line without its newline; appending
			// onto it would corrupt the next record too.
			if err := os.Truncate(path, int64(bytes.LastIndexByte(data, '\n')+1)); err != nil {
				return nil, fmt.Errorf("stamp: truncating torn store line: %w", err)
			}
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
		for sc.Scan() {
			var e storeEntry
			// Skip malformed lines (torn writes) instead of failing:
			// losing one stamp only re-runs its cell, which is safe.
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.FP == "" {
				continue
			}
			fp, err := Parse(e.FP)
			if err != nil {
				continue
			}
			s.entries[fp] = e.Value
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("stamp: reading store: %w", err)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("stamp: creating store directory: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("stamp: opening store: %w", err)
	}
	s.f = f
	return s, nil
}

// Get unmarshals the stored value for fp into v and reports whether the
// fingerprint was present.
func (s *Store) Get(fp Fingerprint, v any) (bool, error) {
	s.mu.Lock()
	raw, ok := s.entries[fp]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	if v == nil || len(raw) == 0 {
		return true, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return true, fmt.Errorf("stamp: store entry %s: %w", fp.Short(), err)
	}
	return true, nil
}

// Has reports whether fp is stored.
func (s *Store) Has(fp Fingerprint) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[fp]
	return ok
}

// Put records fp with value and flushes the line to disk before
// returning, so a kill after Put never loses the stamp.
func (s *Store) Put(fp Fingerprint, value any) error {
	e := storeEntry{FP: fp.String()}
	if value != nil {
		raw, err := json.Marshal(value)
		if err != nil {
			return fmt.Errorf("stamp: storing %s: %w", fp.Short(), err)
		}
		e.Value = raw
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("stamp: storing %s: %w", fp.Short(), err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("stamp: syncing store: %w", err)
	}
	s.entries[fp] = e.Value
	return nil
}

// Len returns the number of stored stamps.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close closes the underlying file. The Store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
