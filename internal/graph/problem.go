// Package graph defines the graph families used by the mapping strategy of
// Yang, Bic and Nicolau: the problem graph (a weighted task DAG), the
// clustered problem graph, the abstract graph, and the system graph.
//
// Tasks and processors are identified by dense 0-based integers. The paper
// numbers tasks from 1; all worked examples in this repository therefore
// appear shifted down by one relative to the paper's figures.
//
// All weights are non-negative integers measured in abstract time units, as
// in the paper: node weights are task execution times, edge weights are
// communication times across a single system edge.
//
//mapcheck:deterministic
package graph

import (
	"errors"
	"slices"
	"sync/atomic"
)

// Problem is a problem graph Gp: a directed acyclic graph whose nodes are
// tasks with execution-time weights and whose edges carry communication-time
// weights. Weight(i, j) > 0 means task i must complete before task j
// starts and sends a message of cost Weight(i, j) (per system edge
// traversed).
//
// Every query reads a frozen sparse view (successor and predecessor lists,
// topological order, validation verdict). ReadProblem builds the view
// straight from the parsed edge lines, in O(n + e), and leaves Edge nil.
// A problem authored with NewProblem and SetEdge keeps its edges in the
// dense Edge buffer until the first call that needs the graph's structure
// — Validate, TopoOrder, Preds, Weight, Fingerprint and the other
// structural queries, or any analysis handed the problem — freezes it into
// the view that every later call shares. Write edges with SetEdge, which
// drops the view; writing Edge directly is only allowed before the first
// freeze. See the freeze-point contract in fingerprint.go.
//
// The zero value is an empty graph with no tasks; use NewProblem to allocate
// a graph of a given size.
type Problem struct {
	// Size holds the execution time of each task. len(Size) is the number
	// of tasks np.
	Size []int
	// Edge is the authoring buffer for the np×np problem edge matrix
	// prob_edge of the paper: Edge[i][j] is the communication weight of
	// the precedence edge i→j, or 0 if there is no edge. NewProblem
	// allocates it and SetEdge writes it; it is nil on a problem that
	// ReadProblem returned. Read edges with Weight, Succs or Preds.
	Edge [][]int

	// view memoizes the frozen sparse form and fp memoizes Fingerprint;
	// see the freeze-point contract in fingerprint.go. They also make
	// Problem no-copy (vet: copylocks).
	view atomic.Pointer[sparse]
	fp   fpMemo
}

// NewProblem returns a problem graph with n tasks, no edges, and all task
// sizes zero.
func NewProblem(n int) *Problem {
	return &Problem{Size: make([]int, n), Edge: newMatrix(n)}
}

// newMatrix allocates a zeroed n×n matrix backed by one array.
func newMatrix(n int) [][]int {
	m := make([][]int, n)
	cells := make([]int, n*n)
	for i := range m {
		m[i], cells = cells[:n:n], cells[n:]
	}
	return m
}

// NumTasks returns np, the number of tasks.
func (p *Problem) NumTasks() int { return len(p.Size) }

// SetEdge records the precedence edge i→j with communication weight w and
// drops the frozen view and fingerprint, so the next structural query sees
// the change. On a problem with no Edge buffer (one ReadProblem returned,
// or a clone of one) it first expands the view into the np×np matrix:
// O(n²) time and memory, meant for authoring only. It panics if i or j is
// out of range; use Validate to detect semantic problems such as cycles or
// non-positive weights.
func (p *Problem) SetEdge(i, j, w int) {
	if p.Edge == nil {
		if s := p.view.Load(); s != nil {
			p.Edge = s.dense()
		}
	}
	p.Edge[i][j] = w
	p.view.Store(nil)
	p.fp.reset()
}

// HasEdge reports whether the precedence edge i→j exists.
func (p *Problem) HasEdge(i, j int) bool { return p.Weight(i, j) > 0 }

// Weight returns the communication weight of the precedence edge i→j, or
// 0 if there is none: a binary search in task i's successor row. It panics
// if i is out of range.
func (p *Problem) Weight(i, j int) int {
	s := p.frozen()
	lo, hi := s.succOff[i], s.succOff[i+1]
	if k, ok := slices.BinarySearch(s.succ[lo:hi], j); ok {
		return s.succW[lo+k]
	}
	return 0
}

// NumEdges returns the number of precedence edges.
func (p *Problem) NumEdges() int { return len(p.frozen().succ) }

// The adjacency queries below return slices of the frozen view: they are
// shared and read-only, and the caller must not modify them. Their
// capacity is clipped, so an append copies instead of clobbering the view.
// They panic on a problem whose edge matrix is not np×np.

// Preds returns the predecessor task IDs of task i in ascending order.
func (p *Problem) Preds(i int) []int {
	s := p.frozen()
	return s.pred[s.predOff[i]:s.predOff[i+1]:s.predOff[i+1]]
}

// PredWeights returns the edge weights of task i's incoming edges, aligned
// with Preds(i): PredWeights(i)[k] is the weight of Preds(i)[k]→i.
func (p *Problem) PredWeights(i int) []int {
	s := p.frozen()
	return s.predW[s.predOff[i]:s.predOff[i+1]:s.predOff[i+1]]
}

// Succs returns the successor task IDs of task i in ascending order.
func (p *Problem) Succs(i int) []int {
	s := p.frozen()
	return s.succ[s.succOff[i]:s.succOff[i+1]:s.succOff[i+1]]
}

// SuccWeights returns the edge weights of task i's outgoing edges, aligned
// with Succs(i).
func (p *Problem) SuccWeights(i int) []int {
	s := p.frozen()
	return s.succW[s.succOff[i]:s.succOff[i+1]:s.succOff[i+1]]
}

// InDegree returns the number of predecessors of task i.
func (p *Problem) InDegree(i int) int {
	s := p.frozen()
	return s.predOff[i+1] - s.predOff[i]
}

// OutDegree returns the number of successors of task i.
func (p *Problem) OutDegree(i int) int {
	s := p.frozen()
	return s.succOff[i+1] - s.succOff[i]
}

// TotalWork returns the sum of all task sizes: the serial execution time of
// the program on a single processor, ignoring communication.
func (p *Problem) TotalWork() int {
	w := 0
	for _, s := range p.Size {
		w += s
	}
	return w
}

// TotalComm returns the sum of all edge weights.
func (p *Problem) TotalComm() int {
	w := 0
	for _, x := range p.frozen().succW {
		w += x
	}
	return w
}

// Clone returns a deep copy of the problem graph. A problem with no Edge
// buffer (one ReadProblem returned) clones to a copy of its task sizes
// that shares its immutable frozen view.
func (p *Problem) Clone() *Problem {
	if p.Edge == nil {
		if s := p.view.Load(); s != nil {
			q := &Problem{Size: make([]int, len(p.Size))}
			copy(q.Size, p.Size)
			q.view.Store(s)
			return q
		}
	}
	q := NewProblem(p.NumTasks())
	copy(q.Size, p.Size)
	for i := range p.Edge {
		copy(q.Edge[i], p.Edge[i])
	}
	return q
}

// Equal reports whether two problem graphs have identical task sizes,
// edges and Validate verdicts. It compares the frozen views.
func (p *Problem) Equal(q *Problem) bool {
	if !slices.Equal(p.Size, q.Size) {
		return false
	}
	a, b := p.frozen(), q.frozen()
	if !slices.Equal(a.succOff, b.succOff) || !slices.Equal(a.succ, b.succ) || !slices.Equal(a.succW, b.succW) {
		return false
	}
	if a.err == nil || b.err == nil {
		return a.err == b.err
	}
	return a.err.Error() == b.err.Error()
}

// ErrCyclic is returned by Validate and TopoOrder when the problem graph
// contains a directed cycle and therefore is not a precedence graph.
var ErrCyclic = errors.New("graph: problem graph contains a cycle")

// Validate checks the structural invariants of a problem graph: a square
// edge matrix matching len(Size), non-negative task sizes and edge weights,
// no self-loops, and acyclicity. The verdict is part of the frozen view, so
// repeated calls cost nothing.
func (p *Problem) Validate() error { return p.frozen().err }

// TopoOrder returns the task IDs in a topological order of the precedence
// DAG (Kahn's algorithm; ties broken by ascending task ID so the order is
// deterministic). It returns ErrCyclic if the graph has a cycle. The slice
// is a fresh copy the caller owns.
func (p *Problem) TopoOrder() ([]int, error) {
	s := p.frozen()
	if s.topoErr != nil {
		return nil, s.topoErr
	}
	order := make([]int, len(s.order))
	copy(order, s.order)
	return order, nil
}

// Sources returns the tasks with no predecessors.
func (p *Problem) Sources() []int {
	var srcs []int
	for i := 0; i < p.NumTasks(); i++ {
		if p.InDegree(i) == 0 {
			srcs = append(srcs, i)
		}
	}
	return srcs
}

// Sinks returns the tasks with no successors.
func (p *Problem) Sinks() []int {
	var snks []int
	for i := 0; i < p.NumTasks(); i++ {
		if p.OutDegree(i) == 0 {
			snks = append(snks, i)
		}
	}
	return snks
}

// CriticalPathLength returns the longest path through the DAG counting task
// sizes and edge weights: the ideal-graph lower bound for the special case
// where every task is its own cluster. It panics if the graph is cyclic.
func (p *Problem) CriticalPathLength() int {
	s := p.frozen()
	if s.topoErr != nil {
		panic(s.topoErr)
	}
	end := make([]int, p.NumTasks())
	best := 0
	for _, i := range s.order {
		start := 0
		for k := s.predOff[i]; k < s.predOff[i+1]; k++ {
			if t := end[s.pred[k]] + s.predW[k]; t > start {
				start = t
			}
		}
		end[i] = start + p.Size[i]
		if end[i] > best {
			best = end[i]
		}
	}
	return best
}
