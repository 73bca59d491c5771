package stamp

import (
	"encoding/json"
	"fmt"
	"sync"

	"graphalytics/internal/jsonlog"
)

// Store is the stamped result store: a jsonlog file of entries mapping
// fingerprints to finished results. It is the campaign's one
// cell-result store: it answers "has any campaign — an earlier one, or
// an interrupted run of this one — produced this exact cell" (keyed by
// content address), which is what makes an interrupted campaign resume
// and turns a re-run of an unchanged matrix into a no-op that still
// renders complete reports. The log cuts a torn final line (crash
// mid-write) on reopen; malformed lines are skipped; a re-recorded
// fingerprint overrides earlier entries (last write wins).
type Store struct {
	mu      sync.Mutex
	log     *jsonlog.Log
	entries map[Fingerprint]json.RawMessage
}

// storeEntry is the on-disk line format.
type storeEntry struct {
	FP    string          `json:"fp"`
	Value json.RawMessage `json:"value,omitempty"`
}

// OpenStore loads the stamped result store at path (creating it and
// its parent directory if absent) and opens it for appending.
func OpenStore(path string) (*Store, error) {
	s := &Store{entries: make(map[Fingerprint]json.RawMessage)}
	log, err := jsonlog.Open(path, func(line []byte) error {
		var e storeEntry
		// Skip malformed lines instead of failing: losing one stamp
		// only re-runs its cell, which is safe.
		if err := json.Unmarshal(line, &e); err != nil || e.FP == "" {
			return nil
		}
		if fp, err := Parse(e.FP); err == nil {
			s.entries[fp] = e.Value
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("stamp: store: %w", err)
	}
	s.log = log
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
// returning, so a kill after Put never loses the stamp. The store lock
// spans the append, so memory and disk agree on which of two concurrent
// Puts of one fingerprint won.
func (s *Store) Put(fp Fingerprint, value any) error {
	e := storeEntry{FP: fp.String()}
	if value != nil {
		raw, err := json.Marshal(value)
		if err != nil {
			return fmt.Errorf("stamp: storing %s: %w", fp.Short(), err)
		}
		e.Value = raw
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Append(e); err != nil {
		return fmt.Errorf("stamp: storing %s: %w", fp.Short(), err)
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

// Close closes the underlying log. The Store must not be used after.
func (s *Store) Close() error { return s.log.Close() }
