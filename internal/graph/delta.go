package graph

import "fmt"

// Structural deltas. Fingerprints (fingerprint.go) answer the binary
// question a response cache needs — "is this request byte-identical to one
// already solved?" — but production mapping traffic is dominated by
// *near*-identical requests: a task graph that grew two nodes, a machine
// that lost a processor. The delta layer extends the fingerprint machinery
// with the graded question: Diff compares two (Problem, System) instances
// and produces a typed Delta — tasks added/removed/resized, edges
// added/removed/reweighted, processors gained/lost, links changed — whose
// Similarity score drives the service layer's warm-start decision, and
// ProjectAssignment carries a previous cluster→processor assignment across
// a delta so refinement can start from it instead of from scratch.
//
// Identity convention: tasks and processors are matched by index — task i
// of the old instance corresponds to task i of the new one while both
// exist; growth appends IDs, shrinkage drops them. This is exactly how
// evolving workloads are produced (gen.Perturb follows the same
// convention) and keeps the diff O(n²) with no graph-isomorphism search.
// Instances that renumber their tasks diff as heavily changed and simply
// fall back to a cold solve — a quality decision, never a correctness one.

// Delta is the typed structural difference between two (Problem, System)
// instances under the index-aligned identity convention.
type Delta struct {
	// TasksAdded lists new-instance task IDs with no old counterpart
	// (ascending); TasksRemoved lists old-instance task IDs with no new
	// counterpart.
	TasksAdded, TasksRemoved []int
	// TasksResized counts tasks present in both instances whose execution
	// time changed.
	TasksResized int
	// EdgesAdded counts precedence edges of the new instance absent from
	// the old one (including edges touching added tasks); EdgesRemoved the
	// converse; EdgesReweighted the edges present in both with a different
	// communication weight.
	EdgesAdded, EdgesRemoved, EdgesReweighted int
	// ProcsGained lists new-instance processor IDs with no old counterpart
	// (ascending); ProcsLost lists old-instance processor IDs with no new
	// counterpart.
	ProcsGained, ProcsLost []int
	// LinksAdded counts system links of the new instance absent from the
	// old one (including links touching gained processors); LinksRemoved
	// the converse.
	LinksAdded, LinksRemoved int
	// OldElems and NewElems are the total element counts of each instance
	// (tasks + edges + processors + links) — the denominator Similarity
	// normalises the change count against.
	OldElems, NewElems int
}

// Diff compares two (Problem, System) instances and returns their
// structural delta. Both problems and both systems must be non-nil; the
// result is deterministic and depends only on graph content.
func Diff(oldP, newP *Problem, oldS, newS *System) Delta {
	var d Delta
	oldNP, newNP := oldP.NumTasks(), newP.NumTasks()
	common := oldNP
	if newNP < common {
		common = newNP
	}
	for i := common; i < newNP; i++ {
		d.TasksAdded = append(d.TasksAdded, i)
	}
	for i := common; i < oldNP; i++ {
		d.TasksRemoved = append(d.TasksRemoved, i)
	}
	for i := 0; i < common; i++ {
		if oldP.Size[i] != newP.Size[i] {
			d.TasksResized++
		}
	}
	// Walk each side's edge lists and probe the other side's matrix cell.
	oldEdges, newEdges := oldP.NumEdges(), newP.NumEdges()
	for i := 0; i < oldNP; i++ {
		for _, j := range oldP.Succs(i) {
			if i >= common || j >= common || newP.Edge[i][j] <= 0 {
				d.EdgesRemoved++
			}
		}
	}
	for i := 0; i < newNP; i++ {
		ws := newP.SuccWeights(i)
		for k, j := range newP.Succs(i) {
			if i >= common || j >= common {
				d.EdgesAdded++
				continue
			}
			switch ow := oldP.Edge[i][j]; {
			case ow <= 0:
				d.EdgesAdded++
			case ow != ws[k]:
				d.EdgesReweighted++
			}
		}
	}

	oldNS, newNS := oldS.NumNodes(), newS.NumNodes()
	commonS := oldNS
	if newNS < commonS {
		commonS = newNS
	}
	for p := commonS; p < newNS; p++ {
		d.ProcsGained = append(d.ProcsGained, p)
	}
	for p := commonS; p < oldNS; p++ {
		d.ProcsLost = append(d.ProcsLost, p)
	}
	oldLinks, newLinks := 0, 0
	for i := 0; i < oldNS; i++ {
		for j := i + 1; j < oldNS; j++ {
			if !oldS.Adj[i][j] {
				continue
			}
			oldLinks++
			if j >= commonS || !newS.Adj[i][j] {
				d.LinksRemoved++
			}
		}
	}
	for i := 0; i < newNS; i++ {
		for j := i + 1; j < newNS; j++ {
			if !newS.Adj[i][j] {
				continue
			}
			newLinks++
			if j >= commonS || !oldS.Adj[i][j] {
				d.LinksAdded++
			}
		}
	}
	d.OldElems = oldNP + oldEdges + oldNS + oldLinks
	d.NewElems = newNP + newEdges + newNS + newLinks
	return d
}

// Changes returns the total number of changed elements the delta records.
func (d Delta) Changes() int {
	return len(d.TasksAdded) + len(d.TasksRemoved) + d.TasksResized +
		d.EdgesAdded + d.EdgesRemoved + d.EdgesReweighted +
		len(d.ProcsGained) + len(d.ProcsLost) +
		d.LinksAdded + d.LinksRemoved
}

// Zero reports a structurally identical pair: no element changed.
func (d Delta) Zero() bool { return d.Changes() == 0 }

// SystemChanged reports whether the machine side of the delta is non-empty
// (processors gained or lost, links added or removed) — the part of a delta
// an assignment projection must survive.
func (d Delta) SystemChanged() bool {
	return len(d.ProcsGained) > 0 || len(d.ProcsLost) > 0 || d.LinksAdded > 0 || d.LinksRemoved > 0
}

// Similarity scores how close the two instances are in [0,1]: 1 means
// structurally identical, 0 means everything changed. It is the changed
// element count normalised by the larger instance's element count, so the
// score is symmetric in growth and shrinkage.
func (d Delta) Similarity() float64 {
	base := d.OldElems
	if d.NewElems > base {
		base = d.NewElems
	}
	if base <= 0 {
		return 1
	}
	s := 1 - float64(d.Changes())/float64(base)
	if s < 0 {
		return 0
	}
	return s
}

// String renders a compact human-readable summary of the delta.
func (d Delta) String() string {
	return fmt.Sprintf(
		"delta{tasks +%d -%d ~%d, edges +%d -%d ~%d, procs +%d -%d, links +%d -%d, similarity %.3f}",
		len(d.TasksAdded), len(d.TasksRemoved), d.TasksResized,
		d.EdgesAdded, d.EdgesRemoved, d.EdgesReweighted,
		len(d.ProcsGained), len(d.ProcsLost),
		d.LinksAdded, d.LinksRemoved, d.Similarity())
}

// Projection reports how a cluster→processor assignment survived being
// carried across a structural delta by ProjectAssignment.
type Projection struct {
	// Kept counts clusters that stayed on their previous processor.
	Kept int
	// Evicted counts clusters whose previous seat no longer exists (the
	// processor was lost) or was already claimed (a duplicate in the old
	// assignment); they were re-seated on free processors.
	Evicted int
	// Fresh counts clusters with no previous seat at all — clusters the
	// new instance gained (K grew past the old assignment's length).
	Fresh int
}

// ProjectAssignment carries a cluster→processor assignment across a
// structural delta: procOf is the old assignment (procOf[k] is the
// processor hosting cluster k), newK the new instance's cluster and
// processor count (the paper requires K == NS). The result is always a
// valid bijection of [0,newK): surviving seats are kept, clusters whose
// processor was lost (or claimed twice) are evicted and re-seated, and
// clusters beyond the old assignment — the processors-gained case, where
// newK exceeds the old NS — are seated fresh. Orphaned clusters take the
// free processors in ascending order, clusters in ascending order, so the
// projection is deterministic. A naive prefix copy is NOT a valid
// projection: when processors are gained it under-covers the new machine,
// and when they are lost it seats clusters on processors that no longer
// exist; the invariants here are exactly what core.New's incumbent
// validation enforces.
func ProjectAssignment(procOf []int, newK int) ([]int, Projection, error) {
	if newK <= 0 {
		return nil, Projection{}, fmt.Errorf("graph: cannot project assignment onto %d clusters", newK)
	}
	out := make([]int, newK)
	for i := range out {
		out[i] = -1
	}
	used := make([]bool, newK)
	var stats Projection
	common := len(procOf)
	if newK < common {
		common = newK
	}
	for k := 0; k < common; k++ {
		p := procOf[k]
		if p < 0 || p >= newK || used[p] {
			stats.Evicted++
			continue // lost processor or duplicate seat: re-seat below
		}
		out[k] = p
		used[p] = true
		stats.Kept++
	}
	stats.Fresh = newK - common
	// Re-seat every orphan (evicted or fresh) on the free processors, both
	// sides in ascending order.
	next := 0
	for k := 0; k < newK; k++ {
		if out[k] != -1 {
			continue
		}
		for used[next] {
			next++
		}
		out[k] = next
		used[next] = true
	}
	return out, stats, nil
}
