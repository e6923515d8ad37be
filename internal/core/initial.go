package core

import (
	"mimdmap/internal/critical"
	"mimdmap/internal/schedule"
)

// initialAssignment implements §4.3.2: place the abstract node with the
// highest critical degree on the system node with the highest degree, then
// grow outward along critical abstract edges (step 2), then place the
// remaining abstract nodes by communication intensity (step 3). It returns
// the assignment and the frozen (critical abstract node) markers used by
// refinement.
//
// Deviations from the paper, all in under-specified corners:
//
//   - Ties are broken by lowest ID instead of "arbitrarily", for
//     determinism.
//   - The step-1 seed is marked critical only when its critical degree is
//     positive; with no critical edges anywhere, freezing an arbitrary
//     cluster would only shrink the refinement space.
//   - When the critical subgraph (step 2) or the abstract graph (step 3) is
//     disconnected, the walk re-seeds on the highest-ranked unvisited node
//     and places it on the highest-degree free system node.
func (m *Mapper) initialAssignment(crit *critical.Analysis) (*schedule.Assignment, []bool) {
	na := m.abs.K
	ns := m.sys.NumNodes()
	assign := &schedule.Assignment{ProcOf: make([]int, na)}
	for k := range assign.ProcOf {
		assign.ProcOf[k] = -1
	}
	frozen := make([]bool, na)
	visitedAbs := make([]bool, na)
	visitedSys := make([]bool, ns)
	deg := m.sys.Degrees()
	mca := m.abs.MCA()

	place := func(va, vs int) {
		assign.ProcOf[va] = vs
		visitedAbs[va] = true
		visitedSys[vs] = true
	}

	// maxDegreeFreeSys returns the unvisited system node with the highest
	// degree (lowest ID on ties), or -1 when none remain.
	maxDegreeFreeSys := func() int {
		best := -1
		for v := 0; v < ns; v++ {
			if visitedSys[v] {
				continue
			}
			if best == -1 || deg[v] > deg[best] {
				best = v
			}
		}
		return best
	}

	// Step 1: seed with the maximum-critical-degree abstract node on the
	// maximum-degree system node.
	seedSys := maxDegreeFreeSys()
	seedAbs := 0
	for k := 1; k < na; k++ {
		if crit.Degree[k] > crit.Degree[seedAbs] {
			seedAbs = k
		}
	}
	place(seedAbs, seedSys)
	if crit.Degree[seedAbs] > 0 {
		frozen[seedAbs] = true
	}

	// Step 2: grow along critical abstract edges until every abstract node
	// with critical edges is placed.
	for {
		va := m.nextCriticalNode(crit, visitedAbs)
		if va == -1 {
			break
		}
		visitedAbs[va] = true
		vs, adjacent := m.pickSystemNode(va, visitedSys, deg, assign, func(other int) int {
			return crit.AbsEdge[va][other]
		})
		if vs == -1 {
			// Disconnected critical component: re-seed on the best free
			// system node. The node cannot be adjacent to a placed critical
			// neighbour (it has none), so it is not frozen.
			vs = maxDegreeFreeSys()
			assign.ProcOf[va] = vs
			visitedSys[vs] = true
			continue
		}
		assign.ProcOf[va] = vs
		visitedSys[vs] = true
		if adjacent {
			// The critical abstract edge va—neighbour landed on a single
			// system edge, so va is a critical abstract node
			// (definition 5) and is pinned during refinement.
			frozen[va] = true
		}
	}

	// Step 3: place the remaining abstract nodes in descending
	// communication intensity, preferring neighbours of placed nodes.
	for {
		va := m.nextIntensityNode(mca, visitedAbs)
		if va == -1 {
			break
		}
		visitedAbs[va] = true
		vs, _ := m.pickSystemNode(va, visitedSys, deg, assign, func(other int) int {
			return m.abs.Weight[va][other]
		})
		if vs == -1 {
			vs = maxDegreeFreeSys()
		}
		assign.ProcOf[va] = vs
		visitedSys[vs] = true
	}
	return assign, frozen
}

// nextCriticalNode returns the unvisited abstract node with the highest
// critical degree among those adjacent (by critical abstract edge) to a
// visited node; if no unvisited node with critical edges is adjacent to the
// placed set but some still exist, it returns the highest-degree one as a
// re-seed. Returns -1 when every node with critical edges is placed.
func (m *Mapper) nextCriticalNode(crit *critical.Analysis, visitedAbs []bool) int {
	bestAdj, bestAny := -1, -1
	for k := 0; k < m.abs.K; k++ {
		if visitedAbs[k] || crit.Degree[k] == 0 {
			continue
		}
		if bestAny == -1 || crit.Degree[k] > crit.Degree[bestAny] {
			bestAny = k
		}
		adjacent := false
		for l := 0; l < m.abs.K; l++ {
			if visitedAbs[l] && crit.AbsEdge[k][l] > 0 {
				adjacent = true
				break
			}
		}
		if adjacent && (bestAdj == -1 || crit.Degree[k] > crit.Degree[bestAdj]) {
			bestAdj = k
		}
	}
	if bestAdj != -1 {
		return bestAdj
	}
	return bestAny
}

// nextIntensityNode returns the unvisited abstract node with the largest
// communication intensity among those adjacent to a visited node, falling
// back to the globally largest, or -1 when all nodes are placed.
func (m *Mapper) nextIntensityNode(mca []int, visitedAbs []bool) int {
	bestAdj, bestAny := -1, -1
	for k := 0; k < m.abs.K; k++ {
		if visitedAbs[k] {
			continue
		}
		if bestAny == -1 || mca[k] > mca[bestAny] {
			bestAny = k
		}
		adjacent := false
		for l := 0; l < m.abs.K; l++ {
			if visitedAbs[l] && m.abs.HasEdge(k, l) {
				adjacent = true
				break
			}
		}
		if adjacent && (bestAdj == -1 || mca[k] > mca[bestAdj]) {
			bestAdj = k
		}
	}
	if bestAdj != -1 {
		return bestAdj
	}
	return bestAny
}

// pickSystemNode chooses the processor for abstract node va (steps 2(b)/(c)
// and 3(b)/(c) of §4.3.2). deg holds the system-node degrees. weight
// supplies the relevant edge weight: the critical abstract edge weight in
// step 2, the full abstract edge weight in step 3.
//
// The paper's step (b) accepts any free system node that is "a neighbor of
// some marked node"; when several qualify it ranks by system-node degree
// only. Within that freedom we rank candidates by the total weighted
// distance to all placed neighbours of va — Σ weight(va,l) × dist(cand,
// proc(l)) — which keeps the whole neighbourhood close rather than a single
// anchor (ties: higher degree, then lower ID). Step (c) applies the same
// rule over all free nodes when no free node is adjacent to any placed
// neighbour. adjacent reports whether the chosen node is directly linked to
// a placed neighbour's processor (the condition under which step 2 marks va
// as a critical abstract node). Returns (-1, false) when va has no placed
// neighbour with positive weight.
func (m *Mapper) pickSystemNode(va int, visitedSys []bool, deg []int, assign *schedule.Assignment, weight func(other int) int) (proc int, adjacent bool) {
	type nb struct{ proc, w int }
	var neighbours []nb
	for l := 0; l < m.abs.K; l++ {
		if l == va || assign.ProcOf[l] < 0 {
			continue
		}
		if w := weight(l); w > 0 {
			neighbours = append(neighbours, nb{assign.ProcOf[l], w})
		}
	}
	if len(neighbours) == 0 {
		return -1, false
	}

	best, bestCost, bestAdj := -1, 0, false
	for v := 0; v < m.sys.NumNodes(); v++ {
		if visitedSys[v] {
			continue
		}
		cost := 0
		adj := false
		for _, nbr := range neighbours {
			cost += nbr.w * m.dist.At(v, nbr.proc)
			if m.sys.Adj[v][nbr.proc] {
				adj = true
			}
		}
		// Nodes adjacent to a placed neighbour (step b) beat non-adjacent
		// ones (step c); then lower weighted distance, then higher degree.
		better := best == -1 ||
			(adj && !bestAdj) ||
			(adj == bestAdj && cost < bestCost) ||
			(adj == bestAdj && cost == bestCost && deg[v] > deg[best])
		if better {
			best, bestCost, bestAdj = v, cost, adj
		}
	}
	return best, bestAdj
}
