package algo

import (
	"maps"
	"math"
	"slices"

	"graphalytics/internal/graph"
)

// The CD workload implements community detection by label propagation
// following Leung et al. (Phys. Rev. E 79, 2009), the algorithm the
// paper cites: score-carried labels with hop attenuation δ and node
// preference deg^m.
//
// Deterministic specification (all platforms must follow it exactly):
//
//   - Initially every vertex holds label = its own ID with score 1.
//   - Rounds are synchronous. In every round each vertex v collects one
//     vote (label, score, degree) from every neighbor in
//     N(v) = out ∪ in. A label's weight is Σ score·deg^m over the votes
//     carrying it, accumulated in ascending (label, score, degree)
//     order (fixed order ⇒ identical floating-point rounding on every
//     platform). deg^m comes from the run's CDWeights table.
//   - v adopts the label with the maximum weight, ties broken by the
//     smallest label. Its new score is the maximum score among the votes
//     that carried the winning label, minus δ if the label differs from
//     v's current one (hop attenuation), floored at 0.
//   - Vertices without neighbors keep their state. After a fixed number
//     of rounds the labels are the community assignment.

// Vote is one neighbor's contribution to the CD label election.
type Vote struct {
	Label  int64
	Score  float64
	Degree int32
}

// CDWeights is the node-preference table deg^m for degrees 0..maxDeg
// under one run's resolved CDPreference m, built once per run so the
// tally looks weights up instead of calling math.Pow per vote. Entries
// are math.Pow(float64(d), m) and a degree past the table falls back to
// math.Pow, so every weight has the bits of a direct call. It is a
// per-run value, not package state: parallel campaigns may run CD with
// different preferences.
type CDWeights struct {
	pow []float64
	m   float64
}

// NewCDWeights builds the weight table for preference m over the
// |N(v)| degrees of a run's graph.
func NewCDWeights(m float64, degs []int32) CDWeights {
	maxDeg := int32(0)
	for _, d := range degs {
		maxDeg = max(maxDeg, d)
	}
	pow := make([]float64, maxDeg+1)
	for d := range pow {
		pow[d] = math.Pow(float64(d), m)
	}
	return CDWeights{pow: pow, m: m}
}

// of returns deg^m.
func (w CDWeights) of(deg int32) float64 {
	if uint(deg) < uint(len(w.pow)) {
		return w.pow[deg]
	}
	return math.Pow(float64(deg), w.m)
}

// TallyVotes elects the winning label from votes under the CD
// specification and returns the label and the maximum score among the
// winning label's votes. Each vote weighs score·deg^m, with deg^m read
// from w. The slice is sorted in place. TallyVotes is shared by every
// platform implementation so the floating-point accumulation is
// bit-identical everywhere. ok is false when votes is empty.
//
// Any correct sort gives the same tally: votes that are equal under
// voteLess carry the same label, score and degree, so swapping them
// changes neither a sum nor a maximum.
func TallyVotes(votes []Vote, w CDWeights) (label int64, maxScore float64, ok bool) {
	if len(votes) == 0 {
		return 0, 0, false
	}
	sortVotes(votes)
	bestLabel := votes[0].Label
	bestWeight := math.Inf(-1)
	bestScore := 0.0

	curLabel := votes[0].Label
	curWeight := 0.0
	curScore := 0.0
	for _, v := range votes {
		if v.Label != curLabel {
			if curWeight > bestWeight {
				bestLabel, bestWeight, bestScore = curLabel, curWeight, curScore
			}
			curLabel = v.Label
			curWeight = 0
			curScore = 0
		}
		curWeight += v.Score * w.of(v.Degree)
		if v.Score > curScore {
			curScore = v.Score
		}
	}
	if curWeight > bestWeight {
		bestLabel, bestScore = curLabel, curScore
	}
	return bestLabel, bestScore, true
}

// voteLess is the spec's (label, score, degree) order.
func voteLess(a, b *Vote) bool {
	if a.Label != b.Label {
		return a.Label < b.Label
	}
	if a.Score < b.Score {
		return true
	}
	if a.Score > b.Score {
		return false
	}
	return a.Degree < b.Degree
}

// sortVotes sorts votes by voteLess: an introsort (median-of-3
// quicksort, insertion sort below 16 votes, heapsort past a depth
// limit) specialised to Vote, so the comparison inlines instead of
// going through a closure. Equal, sorted and reversed inputs stay
// O(n log n).
func sortVotes(votes []Vote) {
	depth := 0
	for n := len(votes); n > 0; n >>= 1 {
		depth += 2
	}
	quickVotes(votes, depth)
}

func quickVotes(a []Vote, depth int) {
	for len(a) > 16 {
		if depth == 0 {
			heapVotes(a)
			return
		}
		depth--
		// Median of first, middle and last moves to a[0] as the pivot.
		m, l := len(a)/2, len(a)-1
		if voteLess(&a[m], &a[0]) {
			a[m], a[0] = a[0], a[m]
		}
		if voteLess(&a[l], &a[m]) {
			a[l], a[m] = a[m], a[l]
			if voteLess(&a[m], &a[0]) {
				a[m], a[0] = a[0], a[m]
			}
		}
		a[0], a[m] = a[m], a[0]
		// Hoare partition: both scans stop on votes equal to the pivot,
		// so runs of equal votes split evenly.
		p := a[0]
		i, j := 0, len(a)
		for {
			for i++; i < len(a) && voteLess(&a[i], &p); i++ {
			}
			for j--; voteLess(&p, &a[j]); j-- {
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		a[0], a[j] = a[j], a[0]
		// Recurse into the smaller side, loop on the larger.
		if j < len(a)-j {
			quickVotes(a[:j], depth)
			a = a[j+1:]
		} else {
			quickVotes(a[j+1:], depth)
			a = a[:j]
		}
	}
	for i := 1; i < len(a); i++ {
		x, j := a[i], i
		for ; j > 0 && voteLess(&x, &a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}

func heapVotes(a []Vote) {
	for i := len(a)/2 - 1; i >= 0; i-- {
		siftVotes(a, i)
	}
	for end := len(a) - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftVotes(a[:end], 0)
	}
}

func siftVotes(a []Vote, root int) {
	for {
		child := 2*root + 1
		if child >= len(a) {
			return
		}
		if child+1 < len(a) && voteLess(&a[child], &a[child+1]) {
			child++
		}
		if !voteLess(&a[root], &a[child]) {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}

// RunCD computes the CD workload reference result.
func RunCD(g *graph.Graph, p Params) CDOutput {
	p = p.WithDefaults(g.NumVertices())
	n := g.NumVertices()

	labels := make([]int64, n)
	scores := make([]float64, n)
	degs := make([]int32, n)
	var buf []graph.VertexID
	for v := 0; v < n; v++ {
		labels[v] = int64(v)
		scores[v] = 1
		buf = g.Neighborhood(graph.VertexID(v), buf[:0])
		degs[v] = int32(len(buf))
	}
	w := NewCDWeights(p.CDPreference, degs)

	newLabels := make([]int64, n)
	newScores := make([]float64, n)
	votes := make([]Vote, 0, 64)
	for iter := 0; iter < p.CDIterations; iter++ {
		for v := 0; v < n; v++ {
			buf = g.Neighborhood(graph.VertexID(v), buf[:0])
			votes = votes[:0]
			for _, u := range buf {
				votes = append(votes, Vote{Label: labels[u], Score: scores[u], Degree: degs[u]})
			}
			win, maxScore, ok := TallyVotes(votes, w)
			if !ok {
				newLabels[v] = labels[v]
				newScores[v] = scores[v]
				continue
			}
			newLabels[v] = win
			s := maxScore
			if win != labels[v] {
				s -= p.CDDelta
			}
			if s < 0 {
				s = 0
			}
			newScores[v] = s
		}
		labels, newLabels = newLabels, labels
		scores, newScores = newScores, scores
	}
	return CDOutput(labels)
}

// CommunitySizes returns label -> member count.
func CommunitySizes(out CDOutput) map[int64]int {
	sizes := make(map[int64]int)
	for _, l := range out {
		sizes[l]++
	}
	return sizes
}

// Modularity computes the Newman modularity of the labeling on the
// undirected view of g; the Output Validator uses it as the quality
// measure for CD results. Communities are summed in ascending label
// order, so equal inputs give equal bits.
func Modularity(g *graph.Graph, labels CDOutput) float64 {
	u := graph.Undirect(g)
	m2 := float64(u.NumArcs()) // 2m
	if m2 == 0 {
		return 0
	}
	internal := make(map[int64]float64) // arcs inside each community
	degSum := make(map[int64]float64)   // Σ degrees per community
	u.Arcs(func(a, b graph.VertexID) {
		if labels[a] == labels[b] {
			internal[labels[a]]++
		}
	})
	for v := 0; v < u.NumVertices(); v++ {
		degSum[labels[v]] += float64(u.OutDegree(graph.VertexID(v)))
	}
	order := slices.Sorted(maps.Keys(degSum))
	var q float64
	for _, l := range order {
		q += internal[l] / m2
	}
	for _, l := range order {
		d := degSum[l]
		q -= (d / m2) * (d / m2)
	}
	return q
}
