package graph

import "fmt"

// sparse is the frozen sparse view of a Problem: successor and predecessor
// lists in CSR form, the Kahn topological order and the Validate verdict.
// One row-major pass over Edge builds it at the freeze point — the first
// call that needs the graph's structure — and every later phase (§4.1
// ideal graph, §4.2 critical walk, §4.3 evaluation, fingerprinting) reads
// it instead of rescanning the n×n matrix. It is immutable once built.
type sparse struct {
	err     error // Validate's verdict
	topoErr error // TopoOrder's verdict: nil, ErrCyclic or the shape error

	// Successor CSR, one row per Edge row (even when Edge is not n×n, so
	// Fingerprint covers every positive cell): row i holds the targets of
	// the positive cells Edge[i][j] in ascending j and their weights.
	succOff []int
	succ    []int
	succW   []int

	// Predecessor CSR over the n tasks, sources ascending; nil when Edge
	// is not n×n.
	predOff []int
	pred    []int
	predW   []int

	// order is the topological order, smallest ready ID first; nil when
	// topoErr is set.
	order []int
}

// frozen returns the problem's sparse view, building and memoizing it on
// first use (see the freeze-point contract in fingerprint.go). Concurrent
// first calls may both build — deterministically the same view — and both
// store.
func (p *Problem) frozen() *sparse {
	if s := p.view.Load(); s != nil {
		return s
	}
	s := buildSparse(p.Size, p.Edge)
	p.view.Store(s)
	return s
}

// buildSparse makes the single O(n²) pass over the edge matrix; everything
// after it is O(n + e).
func buildSparse(size []int, edge [][]int) *sparse {
	n := len(size)
	s := &sparse{succOff: make([]int, len(edge)+1)}
	s.err = matrixShapeErr(edge, n)
	square := s.err == nil
	if square {
		s.err = sizeErr(size)
	}
	var indeg []int
	if square {
		indeg = make([]int, n)
	}
	var edgeErr error
	for i, row := range edge {
		for j, w := range row {
			if w > 0 {
				s.succ = append(s.succ, j)
				s.succW = append(s.succW, w)
				if square {
					indeg[j]++
				}
				if i == j && edgeErr == nil {
					edgeErr = fmt.Errorf("graph: task %d has a self-loop", i)
				}
			} else if w < 0 && edgeErr == nil {
				edgeErr = fmt.Errorf("graph: edge %d→%d has negative weight %d", i, j, w)
			}
		}
		s.succOff[i+1] = len(s.succ)
	}
	if s.err == nil {
		s.err = edgeErr
	}
	if !square {
		s.topoErr = s.err
		return s
	}

	// Predecessor CSR: walking the successor rows in ascending source
	// order fills every predecessor list already sorted.
	s.predOff = make([]int, n+1)
	for i, d := range indeg {
		s.predOff[i+1] = s.predOff[i] + d
	}
	s.pred = make([]int, len(s.succ))
	s.predW = make([]int, len(s.succ))
	cursor := make([]int, n)
	copy(cursor, s.predOff[:n])
	for i := 0; i < n; i++ {
		for k := s.succOff[i]; k < s.succOff[i+1]; k++ {
			j := s.succ[k]
			s.pred[cursor[j]] = i
			s.predW[cursor[j]] = s.succW[k]
			cursor[j]++
		}
	}

	// Kahn's algorithm, always taking the smallest ready task ID so the
	// order is deterministic. indeg counts down in place; ready is a
	// binary min-heap (ascending IDs already satisfy the heap property)
	// in the storage of cursor, which is no longer needed.
	order := make([]int, 0, n)
	ready := cursor[:0]
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		v := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		siftDown(ready)
		order = append(order, v)
		for _, j := range s.succ[s.succOff[v]:s.succOff[v+1]] {
			if indeg[j]--; indeg[j] == 0 {
				ready = append(ready, j)
				siftUp(ready)
			}
		}
	}
	if len(order) != n {
		s.topoErr = ErrCyclic
		if s.err == nil {
			s.err = ErrCyclic
		}
		return s
	}
	s.order = order
	return s
}

// matrixShapeErr reports an edge matrix that is not n×n.
func matrixShapeErr(edge [][]int, n int) error {
	if len(edge) != n {
		return fmt.Errorf("graph: edge matrix has %d rows, want %d", len(edge), n)
	}
	for i, row := range edge {
		if len(row) != n {
			return fmt.Errorf("graph: edge matrix row %d has %d columns, want %d", i, len(row), n)
		}
	}
	return nil
}

// sizeErr reports the first negative task size.
func sizeErr(size []int) error {
	for i, sz := range size {
		if sz < 0 {
			return fmt.Errorf("graph: task %d has negative size %d", i, sz)
		}
	}
	return nil
}

// siftUp restores the min-heap property after an append.
func siftUp(h []int) {
	for c := len(h) - 1; c > 0; {
		parent := (c - 1) / 2
		if h[parent] <= h[c] {
			return
		}
		h[parent], h[c] = h[c], h[parent]
		c = parent
	}
}

// siftDown restores the min-heap property after the root was replaced.
func siftDown(h []int) {
	for parent := 0; ; {
		c := 2*parent + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[parent] <= h[c] {
			return
		}
		h[parent], h[c] = h[c], h[parent]
		parent = c
	}
}
