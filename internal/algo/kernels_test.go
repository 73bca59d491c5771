package algo_test

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"graphalytics/internal/algo"
	"graphalytics/internal/gen/datagen"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform/platformtest"
)

// oracleTallyVotes is the reference tally the CDWeights table and the
// Vote-specialised sort must reproduce bit for bit: math.Pow per vote
// and slices.SortFunc with a closure comparator.
func oracleTallyVotes(votes []algo.Vote, preference float64) (label int64, maxScore float64, ok bool) {
	if len(votes) == 0 {
		return 0, 0, false
	}
	slices.SortFunc(votes, oracleVoteCmp)
	bestLabel := votes[0].Label
	bestWeight := math.Inf(-1)
	bestScore := 0.0

	curLabel := votes[0].Label
	curWeight := 0.0
	curScore := 0.0
	flush := func() {
		if curWeight > bestWeight {
			bestWeight = curWeight
			bestLabel = curLabel
			bestScore = curScore
		}
	}
	for _, v := range votes {
		if v.Label != curLabel {
			flush()
			curLabel = v.Label
			curWeight = 0
			curScore = 0
		}
		curWeight += v.Score * math.Pow(float64(v.Degree), preference)
		if v.Score > curScore {
			curScore = v.Score
		}
	}
	flush()
	return bestLabel, bestScore, true
}

func oracleVoteCmp(a, b algo.Vote) int {
	switch {
	case a.Label != b.Label:
		return cmp.Compare(a.Label, b.Label)
	case a.Score < b.Score:
		return -1
	case a.Score > b.Score:
		return 1
	}
	return cmp.Compare(a.Degree, b.Degree)
}

// oracleClosedPairs is the sorted-merge count the ClosedPairs kernel
// must reproduce: elements common to the sorted lists a and b,
// excluding skip.
func oracleClosedPairs(a, b []graph.VertexID, skip graph.VertexID) int64 {
	var c int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if a[i] != skip {
				c++
			}
			i++
			j++
		}
	}
	return c
}

var cdPreferences = []float64{0.1, 0, -0.7, 2.5}

// checkTally tallies votes with the kernel and the oracle and fails on
// any difference in label, score bits or sorted order. The weight table
// covers degrees up to tableDeg only, so larger degrees take the
// math.Pow fallback.
func checkTally(t *testing.T, votes []algo.Vote, m float64, tableDeg int32) {
	t.Helper()
	got := slices.Clone(votes)
	want := slices.Clone(votes)
	gl, gs, gok := algo.TallyVotes(got, algo.NewCDWeights(m, []int32{tableDeg}))
	wl, ws, wok := oracleTallyVotes(want, m)
	if gl != wl || math.Float64bits(gs) != math.Float64bits(ws) || gok != wok {
		t.Fatalf("m=%v, %d votes: TallyVotes = (%d, %v, %v), oracle (%d, %v, %v)", m, len(votes), gl, gs, gok, wl, ws, wok)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("m=%v, %d votes: sorted order differs from the oracle's", m, len(votes))
	}
}

func TestTallyVotesMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	scores := []float64{0, 0.05, 0.5, 0.95, 1}
	for _, m := range cdPreferences {
		for trial := 0; trial < 600; trial++ {
			n := r.Intn(24)
			if trial%10 == 0 {
				n = 16 + r.Intn(400) // past the insertion-sort cutoff
			}
			labels := 1 + r.Intn(8) // few labels: many equal labels
			if trial%3 == 0 {
				labels = 1 + r.Intn(1000)
			}
			votes := make([]algo.Vote, n)
			for i := range votes {
				v := algo.Vote{Label: int64(r.Intn(labels)), Degree: int32(1 + r.Intn(40))}
				if trial%2 == 0 {
					v.Score = scores[r.Intn(len(scores))] // equal scores
				} else {
					v.Score = r.Float64()
				}
				votes[i] = v
			}
			checkTally(t, votes, m, int32(r.Intn(41)))
		}
		// All votes equal, at and past the insertion-sort cutoff.
		for _, n := range []int{1, 15, 16, 17, 300} {
			votes := make([]algo.Vote, n)
			for i := range votes {
				votes[i] = algo.Vote{Label: 4, Score: 0.5, Degree: 7}
			}
			checkTally(t, votes, m, 40)
		}
		// Equal labels and scores: only the degree orders them.
		votes := make([]algo.Vote, 200)
		for i := range votes {
			votes[i] = algo.Vote{Label: int64(i % 2), Score: 0.25, Degree: int32(200 - i)}
		}
		checkTally(t, votes, m, 100)
	}
}

// sortInputs are the shapes that make a naive quicksort quadratic.
var sortInputs = map[string]func(n int) []algo.Vote{
	"all-equal": func(n int) []algo.Vote {
		votes := make([]algo.Vote, n)
		for i := range votes {
			votes[i] = algo.Vote{Label: 1, Score: 1, Degree: 3}
		}
		return votes
	},
	"sorted": func(n int) []algo.Vote {
		votes := make([]algo.Vote, n)
		for i := range votes {
			votes[i] = algo.Vote{Label: int64(i), Score: 1, Degree: 3}
		}
		return votes
	},
	"reversed": func(n int) []algo.Vote {
		votes := make([]algo.Vote, n)
		for i := range votes {
			votes[i] = algo.Vote{Label: int64(n - i), Score: 1, Degree: 3}
		}
		return votes
	},
	"organ-pipe": func(n int) []algo.Vote {
		votes := make([]algo.Vote, n)
		for i := range votes {
			votes[i] = algo.Vote{Label: int64(min(i, n-i)), Score: 1, Degree: 3}
		}
		return votes
	},
	"three-labels": func(n int) []algo.Vote {
		votes := make([]algo.Vote, n)
		for i := range votes {
			votes[i] = algo.Vote{Label: int64(i % 3), Score: 1, Degree: 3}
		}
		return votes
	},
}

// TestTallyVotesNotQuadratic guards the vote sort against quadratic
// time: sorting 16× more votes of each adversarial shape must cost far
// less than 256× as long (n log n predicts about 22×). Each time is the
// best of several runs, which keeps the ratio stable on a loaded host.
func TestTallyVotesNotQuadratic(t *testing.T) {
	w := algo.NewCDWeights(0.1, []int32{3})
	best := func(votes []algo.Vote) time.Duration {
		d := time.Duration(math.MaxInt64)
		buf := make([]algo.Vote, len(votes))
		for rep := 0; rep < 5; rep++ {
			copy(buf, votes)
			start := time.Now()
			algo.TallyVotes(buf, w)
			d = min(d, time.Since(start))
		}
		return max(d, time.Microsecond)
	}
	for name, gen := range sortInputs {
		checkTally(t, gen(10000), 0.1, 3)
		small, large := best(gen(2000)), best(gen(32000))
		if ratio := float64(large) / float64(small); ratio > 100 {
			t.Errorf("%s: 16× the votes took %.0f× as long (%v vs %v): quadratic sort", name, ratio, large, small)
		}
	}
}

// checkClosedPairs compares every count the engines make on g against
// the merge oracle, on one reused counter and reused buffers (as the
// reference and graphdb use them):
//   - N(v) marked, each out(u) for u ∈ N(v) probed with skip u;
//   - out(v) marked, each N(w) for w ∈ N(v) probed with skip v.
func checkClosedPairs(t *testing.T, g *graph.Graph) {
	t.Helper()
	n := g.NumVertices()
	cp := algo.NewClosedPairs(n)
	var nbh, nw []graph.VertexID
	for v := graph.VertexID(0); int(v) < n; v++ {
		nbh = g.Neighborhood(v, nbh[:0])
		cp.Mark(nbh)
		for _, u := range nbh {
			if got, want := cp.Count(g.OutNeighbors(u), u), oracleClosedPairs(g.OutNeighbors(u), nbh, u); got != want {
				t.Fatalf("%s: N(%d) marked, out(%d) probed: %d, oracle %d", g.Name(), v, u, got, want)
			}
		}
		out := g.OutNeighbors(v)
		cp.Mark(out)
		for _, w := range nbh {
			nw = g.Neighborhood(w, nw[:0])
			if got, want := cp.Count(nw, v), oracleClosedPairs(out, nw, v); got != want {
				t.Fatalf("%s: out(%d) marked, N(%d) probed: %d, oracle %d", g.Name(), v, w, got, want)
			}
		}
	}
}

func TestClosedPairsMatchesOracleOnGraphs(t *testing.T) {
	for _, g := range platformtest.Graphs(t) {
		checkClosedPairs(t, g)
	}
}

func TestClosedPairsMatchesOracleOnRandomLists(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 200
	sortedList := func(k int, repeats bool) []graph.VertexID {
		l := make([]graph.VertexID, k)
		for i := range l {
			l[i] = graph.VertexID(r.Intn(n))
		}
		slices.Sort(l)
		if !repeats {
			l = slices.Compact(l)
		}
		return l
	}
	cp := algo.NewClosedPairs(n)
	var buf []graph.VertexID
	for trial := 0; trial < 3000; trial++ {
		set := sortedList(r.Intn(60), false)          // N(·): a set
		multi := sortedList(r.Intn(80), trial%4 != 0) // out(·): repeats in a multigraph
		// skip in both lists, in one of them, or in neither.
		var skip graph.VertexID
		switch trial % 4 {
		case 0:
			if common := intersect(set, multi); len(common) > 0 {
				skip = common[r.Intn(len(common))]
			}
		case 1:
			if len(set) > 0 {
				skip = set[r.Intn(len(set))]
			}
		case 2:
			if len(multi) > 0 {
				skip = multi[r.Intn(len(multi))]
			}
		case 3:
			skip = n + 5
		}
		want := oracleClosedPairs(multi, set, skip)
		// Marking from a reused buffer, as the reference and graphdb do.
		buf = append(buf[:0], set...)
		cp.Mark(buf)
		if got := cp.Count(multi, skip); got != want {
			t.Fatalf("set %v marked, %v probed, skip %d: %d, oracle %d", set, multi, skip, got, want)
		}
		buf = append(buf[:0], multi...)
		cp.Mark(buf)
		if got := cp.Count(set, skip); got != want {
			t.Fatalf("%v marked, set %v probed, skip %d: %d, oracle %d", multi, set, skip, got, want)
		}
	}
}

func intersect(a, b []graph.VertexID) []graph.VertexID {
	var out []graph.VertexID
	for _, x := range a {
		if _, ok := slices.BinarySearch(b, x); ok {
			out = append(out, x)
		}
	}
	return out
}

// socialHeavy is a 2 500-person Datagen graph, the size of the
// benchmark's in-memory social workload.
func socialHeavy(tb testing.TB) *graph.Graph {
	tb.Helper()
	g, err := datagen.Generate(datagen.Config{Persons: 2500, Seed: 1, Name: "social-2500"})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestModularityDeterministic(t *testing.T) {
	g := socialHeavy(t)
	n := g.NumVertices()
	identity := make(algo.CDOutput, n)
	for v := range identity {
		identity[v] = int64(v)
	}
	for _, labels := range []algo.CDOutput{identity, algo.RunCD(g, algo.Params{})} {
		want := math.Float64bits(algo.Modularity(g, labels))
		for i := 0; i < 50; i++ {
			if got := math.Float64bits(algo.Modularity(g, labels)); got != want {
				t.Fatalf("call %d: modularity bits %x, first call %x", i, got, want)
			}
		}
	}
}

// cdVoteLists builds one vote list per vertex of g: each neighbour's
// label is drawn from 64 communities and its score from a few levels,
// as in a CD run past its first rounds.
func cdVoteLists(g *graph.Graph) (lists [][]algo.Vote, degs []int32) {
	n := g.NumVertices()
	degs = make([]int32, n)
	var buf []graph.VertexID
	for v := range degs {
		buf = g.Neighborhood(graph.VertexID(v), buf[:0])
		degs[v] = int32(len(buf))
	}
	lists = make([][]algo.Vote, n)
	for v := range lists {
		buf = g.Neighborhood(graph.VertexID(v), buf[:0])
		for _, u := range buf {
			lists[v] = append(lists[v], algo.Vote{Label: int64(u*2654435761) % 64, Score: 1 - 0.05*float64(u%4), Degree: degs[u]})
		}
	}
	return lists, degs
}

// BenchmarkTallyVotes tallies one CD round's vote lists on the 2 500
// person graph and checks every election against the oracle.
func BenchmarkTallyVotes(b *testing.B) {
	g := socialHeavy(b)
	lists, degs := cdVoteLists(g)
	m := algo.Params{}.WithDefaults(g.NumVertices()).CDPreference
	type election struct {
		label int64
		score float64
	}
	want := make([]election, len(lists))
	for v, votes := range lists {
		want[v].label, want[v].score, _ = oracleTallyVotes(slices.Clone(votes), m)
	}
	got := make([]election, len(lists))
	scratch := make([]algo.Vote, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := algo.NewCDWeights(m, degs)
		for v, votes := range lists {
			scratch = append(scratch[:0], votes...)
			got[v].label, got[v].score, _ = algo.TallyVotes(scratch, w)
		}
	}
	b.StopTimer()
	for v := range want {
		if got[v].label != want[v].label || math.Float64bits(got[v].score) != math.Float64bits(want[v].score) {
			b.Fatalf("vertex %d: TallyVotes %+v, oracle %+v", v, got[v], want[v])
		}
	}
}

// BenchmarkClosedPairs counts the closed pairs of every vertex of the
// 2 500 person graph as the reference LCC does, and checks the total
// against the merge oracle.
func BenchmarkClosedPairs(b *testing.B) {
	g := socialHeavy(b)
	n := g.NumVertices()
	var want int64
	var nbh []graph.VertexID
	for v := graph.VertexID(0); int(v) < n; v++ {
		nbh = g.Neighborhood(v, nbh[:0])
		for _, u := range nbh {
			want += oracleClosedPairs(g.OutNeighbors(u), nbh, u)
		}
	}
	var got int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := algo.NewClosedPairs(n)
		got = 0
		for v := graph.VertexID(0); int(v) < n; v++ {
			nbh = g.Neighborhood(v, nbh[:0])
			cp.Mark(nbh)
			for _, u := range nbh {
				got += cp.Count(g.OutNeighbors(u), u)
			}
		}
	}
	b.StopTimer()
	if got != want {
		b.Fatalf("closed pairs = %d, oracle %d", got, want)
	}
}
