// Package ideal derives the ideal graph of §4.1: the result of mapping the
// clustered problem graph onto the system graph closure (a fully connected
// machine). Because every pair of processors in the closure is adjacent,
// every inter-cluster message crosses exactly one link, so the ideal start
// and end times follow directly from the clustered edge weights. The ideal
// makespan is a lower bound on the total time of any real assignment
// (Theorem 3), and the ideal edge weights — start of the consumer minus end
// of the producer — feed the critical-edge analysis.
package ideal

import (
	"fmt"

	"mimdmap/internal/graph"
)

// Graph is the derived ideal graph Gi.
type Graph struct {
	// Start and End are the ideal start/end time of every task
	// (matrices i_start and i_end of the paper).
	Start, End []int
	// LowerBound is the ideal total time: the makespan no assignment onto
	// the real system graph can beat.
	LowerBound int
	// LatestTasks are the tasks whose ideal end time equals LowerBound,
	// in ascending ID order.
	LatestTasks []int

	// prob and clus are the inputs the graph was derived from: the ideal
	// edge of j→i is computed on demand from Start, End and the clustered
	// weight rather than stored as an n×n matrix.
	prob *graph.Problem
	clus *graph.Clustering
}

// Derive computes the ideal graph of problem p under clustering c
// (Algorithms I–III of §4.1). The problem graph must be acyclic; Derive
// returns graph.ErrCyclic otherwise.
//
// Start times follow the dataflow recurrence with closure distances (all 1):
//
//	i_start[i] = max over predecessors j of (i_end[j] + clus_edge[j][i])
//	i_end[i]   = i_start[i] + task_size[i]
//
// Predecessors are every problem edge into i, because intra-cluster
// precedence edges are absent from clus_edge but still order execution
// (§4.1's task-1/task-4 example).
func Derive(p *graph.Problem, c *graph.Clustering) (*Graph, error) {
	if c.NumTasks() != p.NumTasks() {
		return nil, fmt.Errorf("ideal: clustering covers %d tasks, problem has %d", c.NumTasks(), p.NumTasks())
	}
	order, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := p.NumTasks()
	g := &Graph{
		Start: make([]int, n),
		End:   make([]int, n),
		prob:  p,
		clus:  c,
	}
	for _, i := range order {
		start := 0
		ws := p.PredWeights(i)
		for k, j := range p.Preds(i) {
			if t := g.End[j] + c.ClusteredWeight(j, i, ws[k]); t > start {
				start = t
			}
		}
		g.Start[i] = start
		g.End[i] = start + p.Size[i]
		if g.End[i] > g.LowerBound {
			g.LowerBound = g.End[i]
		}
	}
	for i := 0; i < n; i++ {
		if g.End[i] == g.LowerBound {
			g.LatestTasks = append(g.LatestTasks, i)
		}
	}
	return g, nil
}

// clusWeight returns clus_edge[j][i] (0 when j→i is not a problem edge or
// is intra-cluster).
func (g *Graph) clusWeight(j, i int) int {
	return g.clus.ClusteredWeight(j, i, g.prob.Weight(j, i))
}

// Edge returns the ideal edge weight i_edge[j][i] = Start[i] − End[j] of a
// clustered problem edge j→i, or 0 when j→i is absent or intra-cluster.
// Always Edge(j, i) ≥ clus_edge[j][i]; the excess is slack introduced by
// data dependencies.
func (g *Graph) Edge(j, i int) int {
	if g.clusWeight(j, i) <= 0 {
		return 0
	}
	return g.Start[i] - g.End[j]
}

// Slack returns the slack of clustered problem edge j→i in the ideal graph:
// i_edge[j][i] − clus_edge[j][i] ≥ 0. A zero slack means the edge is tight —
// the precondition of Theorems 1 and 2 for criticality. Slack of an edge not
// in the clustered graph is reported as -1.
func (g *Graph) Slack(j, i int) int {
	w := g.clusWeight(j, i)
	if w <= 0 {
		return -1
	}
	return g.Start[i] - g.End[j] - w
}

// Tight reports whether problem edge j→i of weight w delivers exactly when
// task i starts: Start[i] == End[j] + clus_edge[j][i]. For an inter-cluster
// edge this is zero slack; for an intra-cluster edge (communication free)
// it means i waits on nothing but j's completion.
func (g *Graph) Tight(j, i, w int) bool {
	return g.Start[i] == g.End[j]+g.clus.ClusteredWeight(j, i, w)
}

// IsLatest reports whether task i is a latest task.
func (g *Graph) IsLatest(i int) bool {
	return g.End[i] == g.LowerBound
}

// Validate cross-checks the internal invariants of a derived ideal graph
// against its problem graph: end = start + size, every task starting no
// earlier than each predecessor delivers (which is i_edge ≥ clus_edge for
// the clustered edges), and the lower bound being the max end time.
func (g *Graph) Validate(p *graph.Problem) error {
	n := p.NumTasks()
	if len(g.Start) != n || len(g.End) != n {
		return fmt.Errorf("ideal: time vectors cover %d/%d tasks, want %d", len(g.Start), len(g.End), n)
	}
	maxEnd := 0
	for i := 0; i < n; i++ {
		if g.End[i] != g.Start[i]+p.Size[i] {
			return fmt.Errorf("ideal: task %d end %d ≠ start %d + size %d", i, g.End[i], g.Start[i], p.Size[i])
		}
		if g.End[i] > maxEnd {
			maxEnd = g.End[i]
		}
		ws := p.PredWeights(i)
		for k, j := range p.Preds(i) {
			if d := g.End[j] + g.clus.ClusteredWeight(j, i, ws[k]); g.Start[i] < d {
				return fmt.Errorf("ideal: task %d starts at %d before predecessor %d delivers at %d",
					i, g.Start[i], j, d)
			}
		}
	}
	if maxEnd != g.LowerBound {
		return fmt.Errorf("ideal: lower bound %d ≠ max end %d", g.LowerBound, maxEnd)
	}
	return nil
}
