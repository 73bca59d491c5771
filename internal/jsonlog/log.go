// Package jsonlog is the append-only JSON-lines file under both durable
// stores: stamp.Store (finished matrix cells) and resultsdb.Store
// (submitted reports). A record is one json.Marshal line, flushed to
// disk before Append returns. A crash mid-Append can leave only a final
// line without its newline; Open cuts it, so the next record starts a
// fresh line. What a record means — which duplicate wins, which order
// is legal — is the caller's replay policy, not the log's.
package jsonlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Log is an open JSON-lines file. It is safe for concurrent use.
type Log struct {
	mu  sync.Mutex
	f   *os.File
	err error // first failed Append; every later Append returns it
}

// Open opens the log at path, creating the file and its parent
// directory if absent. It feeds every complete line to replay in file
// order; a replay error aborts Open, naming the 1-based line. Only
// after the whole file has replayed does Open cut a torn final line, so
// a file it rejects is left exactly as it was.
func Open(path string, replay func(line []byte) error) (*Log, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("creating log directory: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening log: %w", err)
	}
	data, err := os.ReadFile(path)
	rest := data
	for n := 1; err == nil; n++ {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break
		}
		if err = replay(rest[:i]); err != nil {
			err = fmt.Errorf("%s line %d: %w", path, n, err)
		}
		rest = rest[i+1:]
	}
	if err == nil && len(rest) > 0 {
		// A crash mid-Append left a line without its newline; appending
		// onto it would corrupt the next record too.
		err = f.Truncate(int64(len(data) - len(rest)))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// Append writes v as one JSON line and syncs it to disk before
// returning. After a failed write or sync the file may end in a partial
// line, so the log refuses every later Append; reopening it recovers.
func (l *Log) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		l.err = fmt.Errorf("appending to log: %w", err)
		return l.err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("syncing log: %w", err)
		return l.err
	}
	return nil
}

// Close closes the file. The Log must not be used after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
