package schedule

import (
	"fmt"
	"math"
	"math/rand"

	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
)

// Assignment maps abstract nodes (clusters) to system nodes (processors).
// It is stored in both directions; the paper's assi[ns] vector is ProcOf
// inverted. A valid assignment is a bijection, since na == ns.
type Assignment struct {
	// ProcOf[k] is the processor hosting cluster k.
	ProcOf []int
}

// NewAssignment returns the identity assignment of k clusters.
func NewAssignment(k int) *Assignment {
	a := &Assignment{ProcOf: make([]int, k)}
	for i := range a.ProcOf {
		a.ProcOf[i] = i
	}
	return a
}

// FromPerm builds an assignment from a cluster→processor permutation slice.
// The slice is copied.
func FromPerm(perm []int) *Assignment {
	a := &Assignment{ProcOf: make([]int, len(perm))}
	copy(a.ProcOf, perm)
	return a
}

// K returns the number of clusters (== processors).
func (a *Assignment) K() int { return len(a.ProcOf) }

// ClusterOn returns the inverse map: ClusterOn()[p] is the cluster hosted by
// processor p (the paper's assi vector). It panics if the assignment is not
// a bijection.
func (a *Assignment) ClusterOn() []int {
	inv := make([]int, len(a.ProcOf))
	for i := range inv {
		inv[i] = -1
	}
	for k, p := range a.ProcOf {
		if p < 0 || p >= len(inv) || inv[p] != -1 {
			panic(fmt.Sprintf("schedule: assignment is not a bijection at cluster %d → proc %d", k, p))
		}
		inv[p] = k
	}
	return inv
}

// Validate checks that the assignment is a bijection onto [0, K).
func (a *Assignment) Validate() error {
	seen := make([]bool, len(a.ProcOf))
	for k, p := range a.ProcOf {
		if p < 0 || p >= len(seen) {
			return fmt.Errorf("schedule: cluster %d assigned to processor %d, want [0,%d)", k, p, len(seen))
		}
		if seen[p] {
			return fmt.Errorf("schedule: processor %d hosts two clusters", p)
		}
		seen[p] = true
	}
	return nil
}

// Clone returns a deep copy of the assignment.
func (a *Assignment) Clone() *Assignment {
	return FromPerm(a.ProcOf)
}

// Equal reports whether two assignments place every cluster identically.
func (a *Assignment) Equal(b *Assignment) bool {
	if a.K() != b.K() {
		return false
	}
	for i := range a.ProcOf {
		if a.ProcOf[i] != b.ProcOf[i] {
			return false
		}
	}
	return true
}

// Swap exchanges the processors of clusters k and l in place.
func (a *Assignment) Swap(k, l int) {
	a.ProcOf[k], a.ProcOf[l] = a.ProcOf[l], a.ProcOf[k]
}

// Result holds the outcome of evaluating one assignment.
type Result struct {
	// Start and End are the per-task start and end times
	// (matrices start[np] and end[np] of the paper).
	Start, End []int
	// TotalTime is the complete execution time: max over tasks of End.
	TotalTime int
	// LatestTasks are the tasks whose end time equals TotalTime
	// (the paper's "latest tasks"), in ascending ID order.
	LatestTasks []int
}

// Evaluator computes total time for assignments of one (problem, clustering,
// system) triple. It precomputes a flattened, topologically renumbered
// predecessor structure straight from the problem's frozen predecessor
// lists, so repeated evaluation during refinement performs no per-call
// allocation.
//
// An Evaluator owns a scratch arena reused by TotalTime and EvaluateInto
// and is therefore NOT safe for concurrent use. Concurrent callers — the
// multi-start refinement chains, batch-solver workers — must each evaluate
// through their own handle obtained with Fork, which shares the read-only
// precomputation and allocates only a fresh arena.
type Evaluator struct {
	Prob *graph.Problem
	Clus *graph.Clustering
	Dist *paths.Table

	order []int // topological order of the task DAG

	// Hot-path precomputation, read-only after construction and shared by
	// every Fork. Tasks are renumbered by topological position t (the task
	// at position t is order[t]), so the evaluation loop walks all arrays
	// sequentially; predecessor edges are packed into one int32 record
	// stream per kind to keep the per-edge cache traffic to a single line.
	ns        int        // number of processors
	distT     []int      // distT[to*ns+from] = Dist.At(from, to), transposed flat
	size      []int32    // size[t] = Prob.Size[order[t]]
	clusOf    []int32    // clusOf[t] = Clus.Of[order[t]]
	commOff   []int32    // CSR offsets (len n+1) into commEdges
	commEdges []commEdge // predecessor edges in topo order (w == 0 when local)

	// Delta-evaluation precomputation (see delta.go): the successor CSR
	// mirrors commEdges for downstream cone propagation, and the affected
	// CSR lists, per cluster c, the topological positions whose start time
	// may change when cluster c moves to another processor — the tasks with
	// a communicating (w > 0) predecessor edge touching c on either end.
	// Both are read-only after construction and shared by every Fork.
	succOff  []int32 // CSR offsets (len n+1) into succs
	succs    []int32 // successor topo positions, grouped by predecessor
	affOff   []int32 // CSR offsets (len K+1) into affTasks
	affTasks []int32 // affected topo positions per cluster, ascending
	affCost  []int32 // per-cluster edge-record count of the affected tasks

	// end is the per-evaluator scratch arena (end times by topo position).
	// It is the only mutable state and the reason Fork exists.
	end []int
}

// commEdge is one predecessor edge of a task: the predecessor's
// topological position, its cluster, and the clustered edge weight
// (0 for an intra-cluster precedence, whose communication is free —
// 0×distance keeps the evaluation loops branch-free).
type commEdge struct {
	pred, clus, w int32
}

// NewEvaluator builds an evaluator. The problem graph must be acyclic (it
// panics otherwise — validate inputs first) and the clustering must cover
// exactly the problem's tasks with K == dist.NumNodes().
func NewEvaluator(p *graph.Problem, c *graph.Clustering, dist *paths.Table) (*Evaluator, error) {
	if c.NumTasks() != p.NumTasks() {
		return nil, fmt.Errorf("schedule: clustering covers %d tasks, problem has %d", c.NumTasks(), p.NumTasks())
	}
	if c.K != dist.NumNodes() {
		return nil, fmt.Errorf("schedule: %d clusters but %d processors", c.K, dist.NumNodes())
	}
	order, err := p.TopoOrder()
	if err != nil {
		return nil, err
	}
	e := &Evaluator{
		Prob:  p,
		Clus:  c,
		Dist:  dist,
		order: order,
	}
	// The packed evaluation structures hold sizes and clustered weights as
	// int32; reject inputs that would silently truncate (Validate only
	// rejects negatives).
	for i, size := range p.Size {
		if size > math.MaxInt32 {
			return nil, fmt.Errorf("schedule: task %d size %d exceeds the evaluator's %d limit", i, size, math.MaxInt32)
		}
	}
	for j := range p.Size {
		ws := p.SuccWeights(j)
		for k, i := range p.Succs(j) {
			if w := c.ClusteredWeight(j, i, ws[k]); w > math.MaxInt32 {
				return nil, fmt.Errorf("schedule: clustered edge %d→%d weight %d exceeds the evaluator's %d limit", j, i, w, math.MaxInt32)
			}
		}
	}
	e.precompute()
	return e, nil
}

// precompute flattens the evaluation state: the transposed distance matrix
// and the predecessor CSR, indexed by topological position, with each
// edge's clustered weight (0 for an intra-cluster precedence).
func (e *Evaluator) precompute() {
	n := e.Prob.NumTasks()
	ns := e.Dist.NumNodes()
	e.ns = ns
	e.distT = make([]int, ns*ns)
	for from := 0; from < ns; from++ {
		for to := 0; to < ns; to++ {
			e.distT[to*ns+from] = e.Dist.At(from, to)
		}
	}
	pos := make([]int32, n) // pos[task] = topological position
	for t, i := range e.order {
		pos[i] = int32(t)
	}
	e.size = make([]int32, n)
	e.clusOf = make([]int32, n)
	e.commOff = make([]int32, n+1)
	for t, i := range e.order {
		e.size[t] = int32(e.Prob.Size[i])
		e.clusOf[t] = int32(e.Clus.Of[i])
		e.commOff[t+1] = e.commOff[t] + int32(e.Prob.InDegree(i))
	}
	e.commEdges = make([]commEdge, e.commOff[n])
	q := 0
	for _, i := range e.order {
		ws := e.Prob.PredWeights(i)
		for k, j := range e.Prob.Preds(i) {
			e.commEdges[q] = commEdge{pred: pos[j], clus: int32(e.Clus.Of[j]), w: int32(e.Clus.ClusteredWeight(j, i, ws[k]))}
			q++
		}
	}
	e.end = make([]int, n)
	e.precomputeDelta()
}

// precomputeDelta builds the read-only structures the incremental cone
// kernel (delta.go) walks: the successor CSR (inverse of commEdges) and the
// per-cluster affected-task CSR. A task t is affected by cluster c when it
// has a communicating predecessor edge (w > 0) whose consumer or producer
// cluster is c — exactly the tasks whose start time can change when c moves.
// Edges with w == 0 cost nothing at any distance and never seed a cone.
func (e *Evaluator) precomputeDelta() {
	n := len(e.size)
	e.succOff = make([]int32, n+1)
	for i := range e.commEdges {
		e.succOff[e.commEdges[i].pred+1]++
	}
	for t := 0; t < n; t++ {
		e.succOff[t+1] += e.succOff[t]
	}
	e.succs = make([]int32, len(e.commEdges))
	cursor := make([]int32, n)
	copy(cursor, e.succOff[:n])
	for t := 0; t < n; t++ {
		for _, ce := range e.commEdges[e.commOff[t]:e.commOff[t+1]] {
			e.succs[cursor[ce.pred]] = int32(t)
			cursor[ce.pred]++
		}
	}

	k := e.Clus.K
	e.affOff = make([]int32, k+1)
	last := make([]int32, k) // last[c]: latest position appended for c, dedup
	affCursor := make([]int32, k)
	for pass := 0; pass < 2; pass++ {
		for c := range last {
			last[c] = -1
		}
		for t := 0; t < n; t++ {
			for _, ce := range e.commEdges[e.commOff[t]:e.commOff[t+1]] {
				if ce.w == 0 {
					continue
				}
				for _, c := range [2]int32{e.clusOf[t], ce.clus} {
					if last[c] == int32(t) {
						continue
					}
					last[c] = int32(t)
					if e.affTasks == nil {
						e.affOff[c+1]++
					} else {
						e.affTasks[e.affOff[c]+affCursor[c]] = int32(t)
						affCursor[c]++
					}
				}
			}
		}
		if e.affTasks == nil && pass == 0 {
			for c := 0; c < k; c++ {
				e.affOff[c+1] += e.affOff[c]
			}
			e.affTasks = make([]int32, e.affOff[k])
		}
	}

	// affCost[c] is the edge-record count of cluster c's affected tasks:
	// the direct (pre-propagation) cost of walking a cone that c seeds.
	// Summing it per lane gives tryDeltaBatch a free lower-bound estimate
	// of a batch's cone work before marking anything.
	e.affCost = make([]int32, k)
	for c := 0; c < k; c++ {
		var cost int32
		for _, t := range e.affTasks[e.affOff[c]:e.affOff[c+1]] {
			cost += e.commOff[t+1] - e.commOff[t]
		}
		e.affCost[c] = cost
	}
}

// Fork returns an independent evaluation handle: it shares every read-only
// precomputed structure with e (problem, clustering, distances, CSR arrays)
// but owns a fresh scratch arena, so e and the fork may evaluate
// concurrently without locks. Forking costs one []int allocation of np
// words.
func (e *Evaluator) Fork() *Evaluator {
	f := *e
	f.end = make([]int, len(e.end))
	return &f
}

// Comm returns one entry of the communication matrix comm[np][np] under
// assignment a: comm[j][i] = clus_edge[j][i] × shortest[proc(j)][proc(i)]
// (Algorithm I of §4.3.4). Intra-cluster and absent edges give zero.
func (e *Evaluator) Comm(a *Assignment, j, i int) int {
	w := e.Clus.ClusteredWeight(j, i, e.Prob.Edge[j][i])
	if w <= 0 {
		return 0
	}
	return w * e.Dist.At(a.ProcOf[e.Clus.Of[j]], a.ProcOf[e.Clus.Of[i]])
}

// Evaluate computes start/end times and the total time of assignment a
// (Algorithms II–III of §4.3.4). The paper's restartable marking loop is
// equivalent to one pass in topological order, which is what we do. It
// allocates a fresh Result per call; the refinement loop uses TotalTime,
// and callers that re-evaluate in a loop should reuse one via EvaluateInto.
func (e *Evaluator) Evaluate(a *Assignment) *Result {
	res := &Result{}
	e.EvaluateInto(a, res)
	return res
}

// EvaluateInto is Evaluate writing into res, reusing its slices when their
// capacity allows: with a warmed Result (one prior call on the same
// evaluator shape) it performs no allocation. Like TotalTime it uses the
// evaluator's scratch arena, so concurrent callers need their own Fork.
//
//mapcheck:noalloc
func (e *Evaluator) EvaluateInto(a *Assignment, res *Result) {
	n := len(e.size)
	//mapcheck:allow cold grow path: warm Results reuse capacity, the steady state allocates nothing
	res.Start = growInts(res.Start, n)
	//mapcheck:allow cold grow path: warm Results reuse capacity, the steady state allocates nothing
	res.End = growInts(res.End, n)
	res.LatestTasks = res.LatestTasks[:0]
	res.TotalTime = 0
	end := e.end
	procOf := a.ProcOf
	total := 0
	for t := 0; t < n; t++ {
		start := 0
		if ces := e.commEdges[e.commOff[t]:e.commOff[t+1]]; len(ces) > 0 {
			base := procOf[e.clusOf[t]] * e.ns
			for _, ce := range ces {
				if v := end[ce.pred] + int(ce.w)*e.distT[base+procOf[ce.clus]]; v > start {
					start = v
				}
			}
		}
		v := start + int(e.size[t])
		end[t] = v
		i := e.order[t]
		res.Start[i] = start
		res.End[i] = v
		if v > total {
			total = v
		}
	}
	res.TotalTime = total
	for i := 0; i < n; i++ {
		if res.End[i] == total {
			res.LatestTasks = append(res.LatestTasks, i)
		}
	}
}

// TotalTime is Evaluate without materialising per-task results; it is the
// hot path of the refinement loop and performs no allocation: end times
// live in the evaluator's scratch arena and every lookup walks the
// flattened CSR arrays in topological order. Concurrent callers must each
// use their own Fork.
//
//mapcheck:noalloc
func (e *Evaluator) TotalTime(a *Assignment) int {
	return e.fillEnds(a.ProcOf, e.end)
}

// fillEnds runs the topological evaluation pass, writing the end time of
// every task (by topological position) into end and returning the
// makespan. It is the shared body of TotalTime and SwapSession priming.
//
//mapcheck:noalloc
func (e *Evaluator) fillEnds(procOf []int, end []int) int {
	commOff, commEdges := e.commOff, e.commEdges
	clusOf, size, distT, ns := e.clusOf, e.size, e.distT, e.ns
	total := 0
	for t := range end {
		start := 0
		if ces := commEdges[commOff[t]:commOff[t+1]]; len(ces) > 0 {
			base := procOf[clusOf[t]] * ns
			for _, ce := range ces {
				if v := end[ce.pred] + int(ce.w)*distT[base+procOf[ce.clus]]; v > start {
					start = v
				}
			}
		}
		v := start + int(size[t])
		end[t] = v
		if v > total {
			total = v
		}
	}
	return total
}

// growInts returns s resized to n, reusing its backing array when the
// capacity allows and allocating otherwise.
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// RandPermInto fills p with a random permutation of [0,len(p)), consuming
// rng exactly as rand.Perm does (the same Intn sequence) but into a
// caller-owned buffer. Trial loops that draw fresh permutations — random
// mappings, the FullReshuffle refinement — hoist their buffer and stay
// allocation-free without changing their random stream.
func RandPermInto(rng *rand.Rand, p []int) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// RandSwapPair draws two distinct indices from [0,k) with exactly two Intn
// calls — the §4.3.3 RandomSwap move's draw. It is the single definition of
// the refinement trial distribution, shared by core.refine and the
// benchmarks that claim to measure it; k must be at least 2.
func RandSwapPair(rng *rand.Rand, k int) (i, j int) {
	i = rng.Intn(k)
	j = rng.Intn(k - 1)
	if j >= i {
		j++
	}
	return i, j
}

// Cardinality returns Bokhari's mapping-quality measure under assignment a:
// the number of clustered problem edges whose endpoint clusters land on
// directly linked processors (distance exactly 1). Intra-cluster edges do
// not count. Used by the §2.2 counterexample and the cardinality baseline,
// whose pairwise-exchange ascent hammers it; walking the edge CSR instead
// of the n×n clustered matrix makes each call O(edges), allocation-free.
func (e *Evaluator) Cardinality(a *Assignment) int {
	card := 0
	procOf := a.ProcOf
	for t := range e.size {
		ces := e.commEdges[e.commOff[t]:e.commOff[t+1]]
		if len(ces) == 0 {
			continue
		}
		base := procOf[e.clusOf[t]] * e.ns
		for i := range ces {
			ce := &ces[i]
			if ce.w > 0 && e.distT[base+procOf[ce.clus]] == 1 {
				card++
			}
		}
	}
	return card
}
