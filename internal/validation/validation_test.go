package validation

import (
	"math"
	"testing"

	"graphalytics/internal/algo"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := datagen.Generate(datagen.Config{Persons: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestValidReferenceOutputs(t *testing.T) {
	g := testGraph(t)
	params := algo.Params{Source: 0, Seed: 5}.WithDefaults(g.NumVertices())
	cases := []struct {
		kind algo.Kind
		res  Result
	}{
		{algo.STATS, CheckStats(g, algo.RunStats(g), algo.RunStats(g))},
		{algo.BFS, CheckBFS(g, algo.RunBFS(g, 0), algo.RunBFS(g, 0))},
		{algo.CONN, CheckConn(g, algo.RunConn(g), algo.RunConn(g))},
		{algo.CD, CheckCD(g, algo.RunCD(g, params), algo.RunCD(g, params))},
		{algo.EVO, CheckEvo(g, algo.RunEvo(g, params), algo.RunEvo(g, params))},
		{algo.PR, CheckPageRank(g, algo.RunPageRank(g, params), algo.RunPageRank(g, params))},
		{algo.SSSP, CheckSSSP(g, algo.RunSSSP(g, 0), algo.RunSSSP(g, 0))},
		{algo.LCC, CheckLCC(g, algo.RunLCC(g), algo.RunLCC(g))},
	}
	for _, c := range cases {
		if !c.res.Valid {
			t.Errorf("%s: reference output rejected: %s", c.kind, c.res.Detail)
		}
	}
}

func TestPageRankRejections(t *testing.T) {
	g := testGraph(t)
	params := algo.Params{}.WithDefaults(g.NumVertices())
	want := algo.RunPageRank(g, params)

	bad := make(algo.PROutput, len(want))
	copy(bad, want)
	bad[0] += 1e-3
	if r := CheckPageRank(g, bad, want); r.Valid {
		t.Error("perturbed rank accepted")
	}
	// Noise within epsilon is fine.
	near := make(algo.PROutput, len(want))
	copy(near, want)
	near[0] += 1e-13
	if r := CheckPageRank(g, near, want); !r.Valid {
		t.Errorf("epsilon-close ranks rejected: %s", r.Detail)
	}
	if r := CheckPageRank(g, want[:len(want)-1], want); r.Valid {
		t.Error("truncated output accepted")
	}
	// NaN must never validate — NaN comparisons are false both ways, so
	// epsilon checks alone would let an all-NaN output through.
	nan := make(algo.PROutput, len(want))
	for i := range nan {
		nan[i] = math.NaN()
	}
	if r := CheckPageRank(g, nan, want); r.Valid {
		t.Error("all-NaN ranks accepted")
	}
}

func TestSSSPRejections(t *testing.T) {
	g := testGraph(t)
	want := algo.RunSSSP(g, 0)
	bad := make(algo.SSSPOutput, len(want))
	copy(bad, want)
	bad[len(bad)/2] += 0.5
	if r := CheckSSSP(g, bad, want); r.Valid {
		t.Error("corrupted distance accepted")
	}
	if r := CheckSSSP(g, want[:len(want)-1], want); r.Valid {
		t.Error("truncated output accepted")
	}
}

func TestLCCRejections(t *testing.T) {
	g := testGraph(t)
	want := algo.RunLCC(g)
	bad := make(algo.LCCOutput, len(want))
	copy(bad, want)
	bad[0] = 1.5 // outside [0, 1]
	if r := CheckLCC(g, bad, want); r.Valid {
		t.Error("out-of-range coefficient accepted")
	}
	copy(bad, want)
	bad[1] += 0.01
	if r := CheckLCC(g, bad, want); r.Valid {
		t.Error("perturbed coefficient accepted")
	}
	// Coefficients are compared bit for bit: one ulp off is wrong.
	copy(bad, want)
	bad[1] = math.Nextafter(want[1], 1)
	if r := CheckLCC(g, bad, want); r.Valid {
		t.Error("coefficient one ulp off accepted")
	}
}

func TestRankTolerantPolicy(t *testing.T) {
	want := []float64{0.5, 0.3, 0.1, 0.1}
	// Swapping the tied pair is fine.
	if r := RankTolerant([]float64{0.5, 0.3, 0.0999, 0.1001}, want, 1e-2); !r.Valid {
		t.Errorf("tie swap rejected: %s", r.Detail)
	}
	// A genuine inversion is not.
	if r := RankTolerant([]float64{0.3, 0.5, 0.1, 0.1}, want, 1e-2); r.Valid {
		t.Error("rank inversion accepted")
	}
	if r := RankTolerant([]float64{1}, []float64{1, 2}, 0); r.Valid {
		t.Error("length mismatch accepted")
	}
}

func TestStatsRejections(t *testing.T) {
	g := testGraph(t)
	want := algo.RunStats(g)

	bad := want
	bad.Vertices++
	if r := CheckStats(g, bad, want); r.Valid {
		t.Error("wrong vertex count accepted")
	}
	bad = want
	bad.Edges--
	if r := CheckStats(g, bad, want); r.Valid {
		t.Error("wrong edge count accepted")
	}
	bad = want
	bad.MeanLCC += 0.001
	if r := CheckStats(g, bad, want); r.Valid {
		t.Error("wrong LCC accepted")
	}
	// The mean is compared bit for bit: one ulp off is wrong.
	bad = want
	bad.MeanLCC = math.Nextafter(want.MeanLCC, 1)
	if r := CheckStats(g, bad, want); r.Valid {
		t.Error("mean LCC one ulp off accepted")
	}
}

func TestBFSRejections(t *testing.T) {
	g := testGraph(t)
	want := algo.RunBFS(g, 0)
	bad := make(algo.BFSOutput, len(want))
	copy(bad, want)
	bad[len(bad)/2]++
	if r := CheckBFS(g, bad, want); r.Valid {
		t.Error("corrupted depth accepted")
	}
	if r := CheckBFS(g, want[:len(want)-1], want); r.Valid {
		t.Error("truncated output accepted")
	}
}

func TestConnRejections(t *testing.T) {
	g := testGraph(t)
	want := algo.RunConn(g)
	bad := make(algo.ConnOutput, len(want))
	copy(bad, want)
	bad[0] = 99
	if r := CheckConn(g, bad, want); r.Valid {
		t.Error("corrupted label accepted")
	}
}

func TestCDRejections(t *testing.T) {
	g := testGraph(t)
	params := algo.Params{}.WithDefaults(g.NumVertices())
	want := algo.RunCD(g, params)
	bad := make(algo.CDOutput, len(want))
	copy(bad, want)
	bad[3] = int64(g.NumVertices()) + 5 // out of domain
	if r := CheckCD(g, bad, want); r.Valid {
		t.Error("out-of-domain label accepted")
	}
	copy(bad, want)
	bad[3] = want[(len(want)+3)/2]
	if bad[3] == want[3] {
		bad[3] = 0
	}
	if bad[3] != want[3] {
		if r := CheckCD(g, bad, want); r.Valid {
			t.Error("wrong label accepted")
		}
	}
}

func TestEvoRejections(t *testing.T) {
	g := testGraph(t)
	params := algo.Params{Seed: 5}.WithDefaults(g.NumVertices())
	want := algo.RunEvo(g, params)

	bad := want
	bad.NewVertices++
	if r := CheckEvo(g, bad, want); r.Valid {
		t.Error("wrong vertex count accepted")
	}

	bad = want
	bad.Edges = append([][2]graph.VertexID{}, want.Edges...)
	if len(bad.Edges) > 0 {
		bad.Edges = bad.Edges[:len(bad.Edges)-1]
		if r := CheckEvo(g, bad, want); r.Valid {
			t.Error("truncated edge set accepted")
		}
	}

	// Structurally invalid: edge from an original vertex.
	bad = want
	bad.Edges = append([][2]graph.VertexID{{0, 1}}, want.Edges...)
	if r := CheckEvo(g, bad, want); r.Valid {
		t.Error("edge from original vertex accepted")
	}
}

// TestNonFiniteRejections: a NaN or infinite value in a float output
// never validates, in any of the float-valued workloads. NaN compares
// false both ways, so a check of the form "fail if |Δ| > ε" accepts it.
func TestNonFiniteRejections(t *testing.T) {
	g := testGraph(t)
	params := algo.Params{}.WithDefaults(g.NumVertices())
	stats, pr, lcc, sssp := algo.RunStats(g), algo.RunPageRank(g, params), algo.RunLCC(g), algo.RunSSSP(g, 0)
	// with returns a copy of want whose vertex 0 (the SSSP source, so its
	// reference value is finite everywhere) holds x.
	with := func(want []float64, x float64) []float64 {
		got := append([]float64(nil), want...)
		got[0] = x
		return got
	}
	cases := []struct {
		kind  algo.Kind
		check func(x float64) Result
	}{
		{algo.STATS, func(x float64) Result {
			got := stats
			got.MeanLCC = x
			return CheckStats(g, got, stats)
		}},
		{algo.PR, func(x float64) Result { return CheckPageRank(g, with(pr, x), pr) }},
		{algo.LCC, func(x float64) Result { return CheckLCC(g, with(lcc, x), lcc) }},
		{algo.SSSP, func(x float64) Result { return CheckSSSP(g, with(sssp, x), sssp) }},
	}
	for _, c := range cases {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if r := c.check(x); r.Valid {
				t.Errorf("%s: output value %v accepted", c.kind, x)
			}
		}
	}
}
