package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"mimdmap/internal/graph"
	"mimdmap/internal/service"
)

// checkInst is the benchmark's own model of one instance, built at set-up
// from the generated graphs. It shares no code with schedule.Evaluator or
// ideal.Derive, so a response that agrees with it was not merely checked
// against itself.
type checkInst struct {
	k       int
	size    []int
	clus    []int
	order   []int // topological order of the tasks
	predOff []int // CSR offsets into pred and w, per task
	pred    []int
	w       []int
	dist    [][]int // hop distances between processors, by BFS
	lower   int     // makespan when every inter-cluster message costs one hop
}

func newCheckInst(p *graph.Problem, c *graph.Clustering, s *graph.System) (*checkInst, error) {
	n := len(p.Size)
	if len(c.Of) != n {
		return nil, fmt.Errorf("check: clustering covers %d tasks, problem has %d", len(c.Of), n)
	}
	ci := &checkInst{
		k:       len(s.Adj),
		size:    append([]int(nil), p.Size...),
		clus:    append([]int(nil), c.Of...),
		predOff: make([]int, n+1),
	}
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if p.Edge[j][i] > 0 {
				ci.pred = append(ci.pred, j)
				ci.w = append(ci.w, p.Edge[j][i])
				indeg[i]++
			}
		}
		ci.predOff[i+1] = len(ci.pred)
	}
	// Kahn's algorithm over the successor lists.
	succ := make([][]int, n)
	for i := 0; i < n; i++ {
		for _, j := range ci.pred[ci.predOff[i]:ci.predOff[i+1]] {
			succ[j] = append(succ[j], i)
		}
	}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ci.order = append(ci.order, i)
		}
	}
	for h := 0; h < len(ci.order); h++ {
		for _, i := range succ[ci.order[h]] {
			if indeg[i]--; indeg[i] == 0 {
				ci.order = append(ci.order, i)
			}
		}
	}
	if len(ci.order) != n {
		return nil, errors.New("check: problem graph has a cycle")
	}
	ci.dist = make([][]int, ci.k)
	for src := range ci.dist {
		d := make([]int, ci.k)
		for i := range d {
			d[i] = -1
		}
		d[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			for b, linked := range s.Adj[a] {
				if linked && d[b] < 0 {
					d[b] = d[a] + 1
					queue = append(queue, b)
				}
			}
		}
		for b, v := range d {
			if v < 0 {
				return nil, fmt.Errorf("check: processor %d unreachable from %d", b, src)
			}
		}
		ci.dist[src] = d
	}
	ci.lower = ci.makespan(nil, make([]int, n))
	return ci, nil
}

// makespan recomputes the total time of procOf (cluster → processor): a
// task starts once the data of its last predecessor has arrived, which
// costs edge weight × hop distance across clusters and nothing inside one.
// A nil procOf prices every cross-cluster message at one hop, the ideal
// machine of the paper's lower bound. end is scratch of one slot per task.
func (ci *checkInst) makespan(procOf []int, end []int) int {
	total := 0
	for _, i := range ci.order {
		start := 0
		for e := ci.predOff[i]; e < ci.predOff[i+1]; e++ {
			j := ci.pred[e]
			hops := 0
			if ci.clus[j] != ci.clus[i] {
				hops = 1
				if procOf != nil {
					hops = ci.dist[procOf[ci.clus[j]]][procOf[ci.clus[i]]]
				}
			}
			if t := end[j] + ci.w[e]*hops; t > start {
				start = t
			}
		}
		end[i] = start + ci.size[i]
		if end[i] > total {
			total = end[i]
		}
	}
	return total
}

// checker verifies responses against their instance, reusing its scratch
// across calls. One per goroutine.
type checker struct {
	end  []int
	seen []bool
}

// check verifies that the assignment is a bijection onto the machine, that
// TotalTime and LowerBound match the recomputed schedule and ideal bound,
// that the returned schedule agrees, and — for a warm-started remap — that
// the result is no worse than the projected incumbent's total (incumbent
// 0 skips that test).
func (ck *checker) check(ci *checkInst, r *service.Response, incumbent int) error {
	if r == nil || r.Result == nil || r.Result.Assignment == nil {
		return errors.New("response carries no assignment")
	}
	a := r.Result.Assignment.ProcOf
	if len(a) != ci.k {
		return fmt.Errorf("assignment has %d entries, machine has %d processors", len(a), ci.k)
	}
	if cap(ck.seen) < ci.k {
		ck.seen = make([]bool, ci.k)
	}
	seen := ck.seen[:ci.k]
	clear(seen)
	for k, p := range a {
		if p < 0 || p >= ci.k || seen[p] {
			return fmt.Errorf("assignment is not a bijection: cluster %d on processor %d", k, p)
		}
		seen[p] = true
	}
	if cap(ck.end) < len(ci.size) {
		ck.end = make([]int, len(ci.size))
	}
	got := ci.makespan(a, ck.end[:len(ci.size)])
	res := r.Result
	switch {
	case res.TotalTime != got:
		return fmt.Errorf("total time %d, recomputed schedule gives %d", res.TotalTime, got)
	case res.LowerBound != ci.lower:
		return fmt.Errorf("lower bound %d, recomputed ideal bound is %d", res.LowerBound, ci.lower)
	case got < ci.lower:
		return fmt.Errorf("total time %d below the lower bound %d", got, ci.lower)
	case r.Schedule != nil && r.Schedule.TotalTime != got:
		return fmt.Errorf("schedule total %d, recomputed %d", r.Schedule.TotalTime, got)
	case incumbent > 0 && r.Diagnostics.WarmStart && got > incumbent:
		return fmt.Errorf("remap total %d worse than its projected incumbent %d", got, incumbent)
	}
	return nil
}

// digest hashes the deterministic fields of a response. Every workload
// sends requests whose whole result is reproducible: single-chain runs,
// or multi-start runs without the lower-bound exit, which is the only
// thing that lets a multi-start run return any chain's optimal assignment.
type digest [sha256.Size]byte

func digestOf(r *service.Response) digest {
	res := r.Result
	var buf []byte
	put := func(v int) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	put(res.TotalTime)
	put(res.LowerBound)
	put(res.InitialTotalTime)
	put(btoi(res.OptimalProven))
	put(btoi(r.Diagnostics.WarmStart))
	put(r.Diagnostics.Nodes)
	put(res.Refinements)
	put(res.Improved)
	put(res.Chain)
	for _, p := range res.Assignment.ProcOf {
		put(p)
	}
	return sha256.Sum256(buf)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
