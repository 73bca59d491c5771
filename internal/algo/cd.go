package algo

import (
	"cmp"
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
//     platform).
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

// TallyVotes elects the winning label from votes under the CD
// specification and returns the label and the maximum score among the
// winning label's votes. The slice is sorted in place. TallyVotes is
// shared by every platform implementation so the floating-point
// accumulation is bit-identical everywhere. ok is false when votes is
// empty.
func TallyVotes(votes []Vote, preference float64) (label int64, maxScore float64, ok bool) {
	if len(votes) == 0 {
		return 0, 0, false
	}
	slices.SortFunc(votes, func(a, b Vote) int {
		switch {
		case a.Label != b.Label:
			return cmp.Compare(a.Label, b.Label)
		case a.Score < b.Score:
			return -1
		case a.Score > b.Score:
			return 1
		}
		return cmp.Compare(a.Degree, b.Degree)
	})
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

// cdDegree returns |N(v)| under the CD spec (neighborhood size).
func cdDegree(g *graph.Graph, v graph.VertexID, buf []graph.VertexID) int {
	return len(g.Neighborhood(v, buf[:0]))
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
		degs[v] = int32(cdDegree(g, graph.VertexID(v), buf))
	}

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
			win, maxScore, ok := TallyVotes(votes, p.CDPreference)
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
// measure for CD results.
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
	var q float64
	for l, in := range internal {
		q += in / m2
		_ = l
	}
	for _, d := range degSum {
		q -= (d / m2) * (d / m2)
	}
	return q
}
