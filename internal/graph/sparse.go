package graph

import "fmt"

// sparse is the frozen sparse view of a Problem: successor and predecessor
// lists in CSR form, the Kahn topological order and the Validate verdict.
// ReadProblem builds it from the parsed edge lines; for an authored
// problem one row-major pass over Edge builds it at the freeze point — the
// first call that needs the graph's structure. Every later phase (§4.1
// ideal graph, §4.2 critical walk, §4.3 evaluation, fingerprinting) reads
// it instead of an n×n matrix. It is immutable once built.
type sparse struct {
	err     error // Validate's verdict
	topoErr error // TopoOrder's verdict: nil, ErrCyclic or the shape error

	// Successor CSR, one row per task — per Edge row for an authored
	// problem, even when Edge is not n×n, so Fingerprint covers every
	// positive cell: row i holds the targets j of the edges i→j with
	// positive weight, ascending, and their weights.
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
	s.finish(indeg)
	return s
}

// finish completes a view whose successor CSR is built: the predecessor
// CSR and the Kahn order. indeg holds every task's in-degree and is
// consumed as scratch. Both the edge-matrix freeze and the parser's
// edge-list builder end here.
func (s *sparse) finish(indeg []int) {
	n := len(indeg)

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
		return
	}
	s.order = order
}

// dense expands the successor CSR into an edge matrix, one row per row of
// the view.
func (s *sparse) dense() [][]int {
	m := newMatrix(len(s.succOff) - 1)
	for i, row := range m {
		for k := s.succOff[i]; k < s.succOff[i+1]; k++ {
			row[s.succ[k]] = s.succW[k]
		}
	}
	return m
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

// edgeLine is one "edge src dst w" line of the text format.
type edgeLine struct{ src, dst, w int }

// buildSparseLines builds the view of an n-task problem straight from its
// edge lines, in O(n + e) time and memory, with the semantics of writing
// each line into an n×n matrix: a cell's last line sets it, weight 0 is
// no edge, and the self-loop and negative-weight checks see the final
// cells in row-major order. It reorders lines in place.
func buildSparseLines(size []int, lines []edgeLine) *sparse {
	n := len(size)
	// Two stable counting sorts, by destination and then by source, put
	// the lines in row-major cell order with each cell's lines in input
	// order, so a cell's last line ends its run.
	cnt := make([]int, n+1)
	tmp := make([]edgeLine, len(lines))
	countingSort(tmp, lines, cnt, false)
	countingSort(lines, tmp, cnt, true)

	s := &sparse{
		succOff: make([]int, n+1),
		succ:    make([]int, 0, len(lines)),
		succW:   make([]int, 0, len(lines)),
	}
	s.err = sizeErr(size)
	indeg := cnt[:n]
	clear(indeg)
	var edgeErr error
	for k, e := range lines {
		if k+1 < len(lines) && lines[k+1].src == e.src && lines[k+1].dst == e.dst {
			continue // a later line overwrites this cell
		}
		if e.w > 0 {
			s.succ = append(s.succ, e.dst)
			s.succW = append(s.succW, e.w)
			s.succOff[e.src+1]++
			indeg[e.dst]++
			if e.src == e.dst && edgeErr == nil {
				edgeErr = fmt.Errorf("graph: task %d has a self-loop", e.src)
			}
		} else if e.w < 0 && edgeErr == nil {
			edgeErr = fmt.Errorf("graph: edge %d→%d has negative weight %d", e.src, e.dst, e.w)
		}
	}
	for i := 0; i < n; i++ {
		s.succOff[i+1] += s.succOff[i]
	}
	if s.err == nil {
		s.err = edgeErr
	}
	s.finish(indeg)
	return s
}

// countingSort stably copies src into dst ordered by source task (bySrc)
// or by destination task, using cnt (len n+1) as scratch.
func countingSort(dst, src []edgeLine, cnt []int, bySrc bool) {
	clear(cnt)
	key := func(e edgeLine) int {
		if bySrc {
			return e.src
		}
		return e.dst
	}
	for _, e := range src {
		cnt[key(e)+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for _, e := range src {
		k := key(e)
		dst[cnt[k]] = e
		cnt[k]++
	}
}
