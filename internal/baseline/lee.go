package baseline

import (
	"math/rand"

	"mimdmap/internal/schedule"
)

// Lee-style phased communication cost (ref [2] of the paper, as described in
// §2.2): communications are grouped into phases, every communication in a
// phase is assumed to start simultaneously, the cost of a phase is the
// largest weighted distance among its edges, and the overall cost is the sum
// over phases.
//
// The paper's figures assign each clustered problem edge to the phase of its
// source task's topological level (all edges leaving the source tasks are
// phase 1, and so on). The exact phase numbering of the original 1987
// algorithm is richer, but this level-based grouping reproduces every
// relation §2.2 uses it for: it is an indirect measure whose optimum can
// miss the time-optimal assignment.

// Phases groups the clustered problem edges of e by the topological level of
// their source task. Phases()[l] lists the (src,dst) pairs of level l.
// Intra-cluster edges carry no communication and are excluded.
func Phases(e *schedule.Evaluator) [][][2]int {
	n := e.Prob.NumTasks()
	level := make([]int, n)
	order, err := e.Prob.TopoOrder()
	if err != nil {
		panic(err) // evaluator construction already rejected cyclic graphs
	}
	maxLevel := 0
	for _, i := range order {
		for _, j := range e.Prob.Preds(i) {
			if level[j]+1 > level[i] {
				level[i] = level[j] + 1
			}
		}
		if level[i] > maxLevel {
			maxLevel = level[i]
		}
	}
	phases := make([][][2]int, maxLevel+1)
	for j := 0; j < n; j++ {
		ws := e.Prob.SuccWeights(j)
		for k, i := range e.Prob.Succs(j) {
			if e.Clus.ClusteredWeight(j, i, ws[k]) > 0 {
				phases[level[j]] = append(phases[level[j]], [2]int{j, i})
			}
		}
	}
	// Drop trailing empty phases (the last level's tasks send nothing).
	for len(phases) > 0 && len(phases[len(phases)-1]) == 0 {
		phases = phases[:len(phases)-1]
	}
	return phases
}

// CommCost returns the Lee-style phased communication cost of assignment a:
// the sum over phases of the maximum weight×distance in each phase.
func CommCost(e *schedule.Evaluator, phases [][][2]int, a *schedule.Assignment) int {
	total := 0
	for _, phase := range phases {
		maxCost := 0
		for _, edge := range phase {
			j, i := edge[0], edge[1]
			d := e.Dist.At(a.ProcOf[e.Clus.Of[j]], a.ProcOf[e.Clus.Of[i]])
			// Phases hold only inter-cluster edges, whose clustered
			// weight is the problem edge weight.
			if c := e.Prob.Edge[j][i] * d; c > maxCost {
				maxCost = c
			}
		}
		total += maxCost
	}
	return total
}

// MinCommCost searches for an assignment minimising the phased communication
// cost via restarted pairwise exchange, and returns the best assignment and
// its cost. §2.2 of the paper: this optimum need not minimise total time.
func MinCommCost(e *schedule.Evaluator, restarts int, rng *rand.Rand) (*schedule.Assignment, int) {
	if restarts <= 0 {
		restarts = 1
	}
	phases := Phases(e)
	var best *schedule.Assignment
	bestCost := -1
	for r := 0; r < restarts; r++ {
		start := RandomAssignment(e.Clus.K, rng)
		a, cost := PairwiseExchange(start, func(x *schedule.Assignment) int {
			return CommCost(e, phases, x)
		}, nil, 0)
		if bestCost == -1 || cost < bestCost {
			best, bestCost = a, cost
		}
	}
	return best, bestCost
}
