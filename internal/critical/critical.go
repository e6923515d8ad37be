// Package critical identifies the critical problem edges and critical
// abstract edges of an ideal graph (§4.2 of the paper, Theorems 1 and 2).
//
// A clustered problem edge is critical when any increase of its weight
// lengthens the total execution time of the ideal graph. By Theorems 1–2
// that is exactly the set of edges that are tight (i_edge == clus_edge) and
// lie on a tight path to a latest task. The algorithm walks backwards from
// the latest tasks, marking tight predecessor edges.
//
// Two propagation modes are provided:
//
//   - Paper (default): only clustered (inter-cluster) edges propagate,
//     exactly as §4.2 Algorithm I states. An intra-cluster precedence edge
//     (removed from the clustered graph) therefore stops the walk, even when
//     it has zero slack.
//   - Full: the walk also crosses tight intra-cluster edges (a problem
//     edge whose delivery, at zero communication cost, fixes its
//     consumer's start). This finds inter-cluster edges that are
//     critical by the paper's *definition* but missed by its *algorithm*
//     when a zero-slack intra-cluster hop sits between them and the latest
//     task. The ablation experiment E9 measures the difference.
package critical

import (
	"cmp"
	"slices"

	"mimdmap/internal/graph"
	"mimdmap/internal/ideal"
)

// Propagation selects how criticality walks across intra-cluster edges.
type Propagation int

const (
	// Paper follows §4.2 Algorithm I literally: only clustered
	// (inter-cluster) edges propagate criticality.
	Paper Propagation = iota
	// Full additionally propagates across tight intra-cluster precedence
	// edges. Strictly more edges may be marked critical.
	Full
)

// String returns the mode name.
func (p Propagation) String() string {
	switch p {
	case Paper:
		return "paper"
	case Full:
		return "full"
	default:
		return "unknown"
	}
}

// Analysis holds every critical-edge artefact the mapping algorithm needs.
type Analysis struct {
	// Mode records the propagation mode used.
	Mode Propagation
	// ProbEdges lists the critical problem edges crit_edge, sorted by
	// source then target, each with its clustered weight.
	ProbEdges []Edge
	// AbsEdge is the critical abstract edge matrix c_abs_edge (symmetric,
	// without the paper's extra degree column): AbsEdge[k][l] is the summed
	// weight of critical problem edges between clusters k and l.
	AbsEdge [][]int
	// Degree[k] is the critical degree of abstract node k: the sum of the
	// weights of all critical abstract edges incident to it (the last
	// column of the paper's c_abs_edge matrix).
	Degree []int
	// OnCriticalPath[i] reports that delaying the start of task i delays
	// the total time — task i was reached by the backward walk.
	OnCriticalPath []bool
}

// Edge is one critical problem edge From→To with its clustered weight.
type Edge struct {
	From, To, Weight int
}

// Analyze computes the critical problem edges, critical abstract edges and
// critical degrees of ideal graph g (derived from problem p and clustering
// c) under the given propagation mode.
func Analyze(p *graph.Problem, c *graph.Clustering, g *ideal.Graph, mode Propagation) *Analysis {
	n := p.NumTasks()
	a := &Analysis{
		Mode:           mode,
		AbsEdge:        newMatrix(c.K),
		Degree:         make([]int, c.K),
		OnCriticalPath: make([]bool, n),
	}

	// Backward walk from the latest tasks (§4.2 Algorithm I). The visited
	// set doubles as the "already in LS" marker; each task is expanded once,
	// so each edge is examined — and recorded — at most once.
	worklist := make([]int, 0, n)
	for _, i := range g.LatestTasks {
		if !a.OnCriticalPath[i] {
			a.OnCriticalPath[i] = true
			worklist = append(worklist, i)
		}
	}
	for len(worklist) > 0 {
		i := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		ws := p.PredWeights(i)
		for k, j := range p.Preds(i) {
			// Paper: only clustered edges count, tight iff i_edge ==
			// clus_edge. Full: any problem edge, tight iff the start of i
			// equals the delivery time from j — for inter-cluster edges
			// the same test, for intra-cluster edges slack zero with
			// comm 0.
			w := c.ClusteredWeight(j, i, ws[k])
			if (mode == Paper && w == 0) || !g.Tight(j, i, ws[k]) {
				continue
			}
			if w > 0 {
				a.ProbEdges = append(a.ProbEdges, Edge{From: j, To: i, Weight: w})
			}
			if !a.OnCriticalPath[j] {
				a.OnCriticalPath[j] = true
				worklist = append(worklist, j)
			}
		}
	}
	slices.SortFunc(a.ProbEdges, func(x, y Edge) int {
		return cmpEdge(x, y.From, y.To)
	})

	// Fold critical problem edges into critical abstract edges
	// (§4.2 Algorithm II) and row-sum the critical degrees (Algorithm III).
	for _, e := range a.ProbEdges {
		k, l := c.Of[e.From], c.Of[e.To]
		a.AbsEdge[k][l] += e.Weight
		a.AbsEdge[l][k] += e.Weight
	}
	for k := 0; k < c.K; k++ {
		for l := 0; l < c.K; l++ {
			a.Degree[k] += a.AbsEdge[k][l]
		}
	}
	return a
}

// ProbWeight returns crit_edge[j][i]: the clustered weight of j→i if it is
// a critical problem edge, 0 otherwise.
func (a *Analysis) ProbWeight(j, i int) int {
	if x, ok := slices.BinarySearchFunc(a.ProbEdges, [2]int{j, i}, func(e Edge, t [2]int) int {
		return cmpEdge(e, t[0], t[1])
	}); ok {
		return a.ProbEdges[x].Weight
	}
	return 0
}

// cmpEdge orders e against the edge from→to by source, then target.
func cmpEdge(e Edge, from, to int) int {
	if e.From != from {
		return cmp.Compare(e.From, from)
	}
	return cmp.Compare(e.To, to)
}

// HasCriticalEdges reports whether any critical problem edge exists. A
// program whose lower bound is dominated by computation (or whose critical
// path is entirely intra-cluster in Paper mode) may have none; the initial
// assignment then falls through to communication-intensity placement.
func (a *Analysis) HasCriticalEdges() bool {
	for _, d := range a.Degree {
		if d > 0 {
			return true
		}
	}
	return false
}

// CriticalClusters returns the abstract nodes with at least one incident
// critical abstract edge, in ascending ID order.
func (a *Analysis) CriticalClusters() []int {
	var ks []int
	for k, d := range a.Degree {
		if d > 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// NumCriticalProbEdges returns the count of critical problem edges.
func (a *Analysis) NumCriticalProbEdges() int { return len(a.ProbEdges) }

// NumCriticalAbsEdges returns the count of (undirected) critical abstract
// edges.
func (a *Analysis) NumCriticalAbsEdges() int {
	n := 0
	for k := range a.AbsEdge {
		for l := k + 1; l < len(a.AbsEdge[k]); l++ {
			if a.AbsEdge[k][l] > 0 {
				n++
			}
		}
	}
	return n
}

// IsCriticalAbsEdge reports whether the abstract edge k—l is critical.
func (a *Analysis) IsCriticalAbsEdge(k, l int) bool {
	return k != l && a.AbsEdge[k][l] > 0
}

func newMatrix(n int) [][]int {
	m := make([][]int, n)
	cells := make([]int, n*n)
	for i := range m {
		m[i], cells = cells[:n:n], cells[n:]
	}
	return m
}

// LongestCriticalChain extracts one maximal tight path of the ideal graph:
// starting from the lowest-numbered latest task, it repeatedly steps to the
// lowest-numbered predecessor whose delivery is tight (start[i] == end[j] +
// clus_edge[j][i], across any precedence edge), until a source is reached.
// The returned task sequence runs source → latest task; its node weights
// plus clustered communication weights sum exactly to the lower bound.
// Reports and visualisations use it to show *why* the bound is what it is.
func LongestCriticalChain(p *graph.Problem, g *ideal.Graph) []int {
	if len(g.LatestTasks) == 0 {
		return nil
	}
	chain := []int{g.LatestTasks[0]}
	cur := g.LatestTasks[0]
	for {
		next := -1
		ws := p.PredWeights(cur)
		for k, j := range p.Preds(cur) {
			if g.Tight(j, cur, ws[k]) {
				next = j
				break
			}
		}
		if next == -1 {
			break
		}
		chain = append(chain, next)
		cur = next
	}
	// Reverse to source → latest order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}
