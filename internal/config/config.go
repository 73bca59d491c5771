// Package config parses the Java-style .properties configuration files
// Graphalytics uses ("Users must setup the platforms and configure
// Graphalytics according to this", §2.3): key = value lines, #/!
// comments, and \ line continuations, with hierarchical key prefixes.
// The driver's benchmark.* keys stand in for flags, which parse their
// values; Int64 reads the per-platform keys.
package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Properties is a parsed properties file.
type Properties struct {
	values map[string]string
	keys   []string // insertion order
}

// New returns an empty Properties.
func New() *Properties {
	return &Properties{values: map[string]string{}}
}

// Load parses properties from r.
func Load(r io.Reader) (*Properties, error) {
	p := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	var pending string
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if pending != "" {
			line = pending + line
			pending = ""
		}
		if line == "" || line[0] == '#' || line[0] == '!' {
			continue
		}
		if strings.HasSuffix(line, "\\") {
			pending = strings.TrimSuffix(line, "\\")
			continue
		}
		sep := strings.IndexAny(line, "=:")
		if sep < 0 {
			return nil, fmt.Errorf("config: line %d: missing separator in %q", lineNo, line)
		}
		key := strings.TrimSpace(line[:sep])
		val := strings.TrimSpace(line[sep+1:])
		if key == "" {
			return nil, fmt.Errorf("config: line %d: empty key", lineNo)
		}
		p.Set(key, val)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pending != "" {
		return nil, fmt.Errorf("config: dangling line continuation")
	}
	return p, nil
}

// LoadFile parses the properties file at path.
func LoadFile(path string) (*Properties, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Set stores key = value.
func (p *Properties) Set(key, value string) {
	if _, exists := p.values[key]; !exists {
		p.keys = append(p.keys, key)
	}
	p.values[key] = value
}

// Has reports whether key is present.
func (p *Properties) Has(key string) bool {
	_, ok := p.values[key]
	return ok
}

// String returns key's value or def when absent.
func (p *Properties) String(key, def string) string {
	if v, ok := p.values[key]; ok {
		return v
	}
	return def
}

// Int64 returns key's value parsed as int64, or def.
func (p *Properties) Int64(key string, def int64) (int64, error) {
	v, ok := p.values[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("config: %s: %w", key, err)
	}
	return n, nil
}

// Keys returns all keys in insertion order.
func (p *Properties) Keys() []string {
	out := make([]string, len(p.keys))
	copy(out, p.keys)
	return out
}

// WithPrefix returns the sub-properties under "prefix." with the prefix
// stripped (e.g. WithPrefix("benchmark.run") maps
// benchmark.run.algorithms -> algorithms).
func (p *Properties) WithPrefix(prefix string) *Properties {
	out := New()
	full := prefix + "."
	for _, k := range p.keys {
		if strings.HasPrefix(k, full) {
			out.Set(strings.TrimPrefix(k, full), p.values[k])
		}
	}
	return out
}

// Write serializes the properties (sorted by key) to w.
func (p *Properties) Write(w io.Writer) error {
	keys := make([]string, 0, len(p.values))
	for k := range p.values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bw := bufio.NewWriter(w)
	for _, k := range keys {
		if _, err := fmt.Fprintf(bw, "%s = %s\n", k, p.values[k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
