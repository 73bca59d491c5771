package config

import (
	"bytes"
	"strings"
	"testing"
)

func TestLoadBasics(t *testing.T) {
	src := `
# comment
! also a comment
benchmark.run.algorithms = BFS, CONN , CD
benchmark.run.timeout = 30s
graphs.root: /data/graphs
workers = 8
verbose = true
long.value = a\
b\
c
`
	p, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if v := p.String("benchmark.run.algorithms", ""); v != "BFS, CONN , CD" {
		t.Errorf("String = %q", v)
	}
	if v := p.String("benchmark.run.timeout", ""); v != "30s" {
		t.Errorf("String = %q", v)
	}
	if v := p.String("graphs.root", ""); v != "/data/graphs" {
		t.Errorf("colon separator: %q", v)
	}
	if n, err := p.Int64("workers", 0); err != nil || n != 8 {
		t.Errorf("Int64 = %d, %v", n, err)
	}
	if v := p.String("verbose", ""); v != "true" {
		t.Errorf("String = %q", v)
	}
	if v := p.String("long.value", ""); v != "abc" {
		t.Errorf("continuation: %q", v)
	}
}

func TestDefaults(t *testing.T) {
	p := New()
	if v := p.String("missing", "dflt"); v != "dflt" {
		t.Errorf("String default: %q", v)
	}
	if n, err := p.Int64("missing", 42); err != nil || n != 42 {
		t.Errorf("Int64 default: %d %v", n, err)
	}
	if p.Has("missing") {
		t.Error("Has on missing key")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"novalue\n",
		"= bare\n",
		"dangling = x\\\n",
	}
	for _, src := range cases {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("Load(%q) should fail", src)
		}
	}
	p := New()
	p.Set("platform.pregel.memory", "notanint")
	if _, err := p.Int64("platform.pregel.memory", 0); err == nil || !strings.Contains(err.Error(), "platform.pregel.memory") {
		t.Errorf("Int64 on garbage = %v, want an error naming the key", err)
	}
}

func TestWithPrefix(t *testing.T) {
	p := New()
	p.Set("benchmark.run.algorithms", "BFS")
	p.Set("benchmark.run.graphs", "patents")
	p.Set("platform.pregel.workers", "4")
	sub := p.WithPrefix("benchmark.run")
	if !sub.Has("algorithms") || !sub.Has("graphs") || sub.Has("platform.pregel.workers") {
		t.Errorf("WithPrefix keys = %v", sub.Keys())
	}
}

func TestSetOverridesAndKeysOrder(t *testing.T) {
	p := New()
	p.Set("a", "1")
	p.Set("b", "2")
	p.Set("a", "3")
	if v := p.String("a", ""); v != "3" {
		t.Errorf("override: %q", v)
	}
	keys := p.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("keys = %v", keys)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	p := New()
	p.Set("z.key", "val1")
	p.Set("a.key", "val2")
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p2.String("z.key", "") != "val1" || p2.String("a.key", "") != "val2" {
		t.Errorf("round trip failed: %v", p2.Keys())
	}
}
