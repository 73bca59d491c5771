package stamp

import (
	"os"
	"path/filepath"
	"testing"

	"graphalytics/internal/graph"
)

func baseInputs() CellInputs {
	return CellInputs{
		Graph:          Dataset("social", "persons=1000,seed=42"),
		Workload:       "bfs/policy=exact/validate=true",
		Params:         `{"Source":0}`,
		Platform:       "pregel",
		PlatformConfig: "pregel/workers=4,mem=0,combiners=true,partitioner=hash",
		Binary:         "v1",
	}
}

func TestCellFingerprintDeterministic(t *testing.T) {
	if Cell(baseInputs()) != Cell(baseInputs()) {
		t.Fatal("equal inputs fingerprint differently")
	}
}

// Every single input must invalidate the cell fingerprint on its own.
func TestCellFingerprintSensitivity(t *testing.T) {
	base := Cell(baseInputs())
	mutations := map[string]func(*CellInputs){
		"graph":           func(in *CellInputs) { in.Graph = Dataset("social", "persons=1000,seed=43") },
		"workload":        func(in *CellInputs) { in.Workload = "bfs/policy=exact/validate=false" },
		"params":          func(in *CellInputs) { in.Params = `{"Source":1}` },
		"platform":        func(in *CellInputs) { in.Platform = "dataflow" },
		"platform-config": func(in *CellInputs) { in.PlatformConfig = "pregel/workers=8,mem=0,combiners=true,partitioner=hash" },
		"binary":          func(in *CellInputs) { in.Binary = "v2" },
	}
	for name, mutate := range mutations {
		in := baseInputs()
		mutate(&in)
		if Cell(in) == base {
			t.Errorf("changing %s did not change the cell fingerprint", name)
		}
	}
}

// Length-prefixed fields: shifting bytes between adjacent fields must
// change the hash ("ab"+"c" vs "a"+"bc").
func TestHasherFieldBoundaries(t *testing.T) {
	h1 := NewHasher("t")
	h1.Field("ab", "c")
	h2 := NewHasher("t")
	h2.Field("a", "bc")
	if h1.Sum() == h2.Sum() {
		t.Fatal("field boundary ambiguity: ab|c == a|bc")
	}
}

func TestDomainSeparation(t *testing.T) {
	d := NewHasher("dataset")
	d.Field("x", "y")
	e := NewHasher("etl")
	e.Field("x", "y")
	if d.Sum() == e.Sum() {
		t.Fatal("domains do not separate fingerprints")
	}
}

func TestParseRoundTrip(t *testing.T) {
	fp := Dataset("rmat", "scale=10")
	back, err := Parse(fp.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != fp {
		t.Fatal("Parse(String()) round trip failed")
	}
	if len(fp.Short()) != 12 {
		t.Fatalf("Short() length = %d, want 12", len(fp.Short()))
	}
	if fp.IsZero() {
		t.Fatal("real fingerprint reports zero")
	}
	if !(Fingerprint{}).IsZero() {
		t.Fatal("zero fingerprint does not report zero")
	}
	if _, err := Parse("zz"); err == nil {
		t.Fatal("Parse accepted junk")
	}
}

func TestOfGraphMatchesContent(t *testing.T) {
	mk := func(name string) *graph.Graph {
		return graph.FromArcs(name, 4, []graph.VertexID{0, 1, 2}, []graph.VertexID{1, 2, 3}, nil, false, 1)
	}
	a, err := OfGraph(mk("g"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := OfGraph(mk("g"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical graphs fingerprint differently")
	}
	c, err := OfGraph(mk("h"))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different graphs fingerprint equal")
	}
}

type storedResult struct {
	Runtime int64  `json:"runtime"`
	Status  string `json:"status"`
}

func TestStoreRoundTripAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "stamps.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fp := Dataset("social", "n=1")
	if s.Has(fp) {
		t.Fatal("empty store has a stamp")
	}
	if err := s.Put(fp, storedResult{Runtime: 42, Status: "success"}); err != nil {
		t.Fatal(err)
	}
	var got storedResult
	ok, err := s.Get(fp, &got)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if got.Runtime != 42 || got.Status != "success" {
		t.Fatalf("got %+v", got)
	}
	s.Close()

	// Reopen: the entry must survive the process boundary.
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 || !s2.Has(fp) {
		t.Fatalf("reloaded store: len=%d has=%v", s2.Len(), s2.Has(fp))
	}
}

func TestStoreLastWriteWinsAndTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stamps.jsonl")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fp := Dataset("x", "1")
	if err := s.Put(fp, storedResult{Runtime: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fp, storedResult{Runtime: 2}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: a torn trailing line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fp":"dead`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var got storedResult
	if ok, err := s2.Get(fp, &got); !ok || err != nil {
		t.Fatalf("Get after torn line = %v, %v", ok, err)
	}
	if got.Runtime != 2 {
		t.Fatalf("last write did not win: runtime = %d", got.Runtime)
	}
	if s2.Len() != 1 {
		t.Fatalf("torn line counted: len = %d", s2.Len())
	}

	// A Put after the torn tail must survive the next reload, not be
	// glued onto the fragment.
	fp2 := Dataset("y", "1")
	if err := s2.Put(fp2, storedResult{Runtime: 3}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if !s3.Has(fp2) || !s3.Has(fp) || s3.Len() != 2 {
		t.Fatalf("entry written after a torn tail lost: has(new)=%v has(old)=%v len=%d", s3.Has(fp2), s3.Has(fp), s3.Len())
	}
}

func TestBinaryVersionNonEmpty(t *testing.T) {
	if BinaryVersion() == "" {
		t.Fatal("BinaryVersion() is empty")
	}
	if BinaryVersion() != BinaryVersion() {
		t.Fatal("BinaryVersion() is unstable")
	}
}
