package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mimdmap/internal/cluster"
	"mimdmap/internal/critical"
	"mimdmap/internal/experiment"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/ideal"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/topology"
)

// The dense reference oracle. The §4.1 ideal graph, the §4.2 critical-edge
// walk and the §4.3 evaluation read the problem through its frozen sparse
// view; the references below are the original n×n-matrix formulations,
// kept only here. Every sparse result must equal its dense reference
// exactly, on the paper's worked examples and on generated instances from
// np = 8 to np = 2048, under both propagation modes.

// denseIdeal is the ideal graph with its n×n i_edge and clus_edge matrices.
type denseIdeal struct {
	Start, End  []int
	Edge, CEdge [][]int
	LowerBound  int
	LatestTasks []int
}

func newMatrix(n int) [][]int {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	return m
}

func denseDerive(p *graph.Problem, c *graph.Clustering) (*denseIdeal, error) {
	order, err := graph.DenseTopoOrder(p)
	if err != nil {
		return nil, err
	}
	n := p.NumTasks()
	g := &denseIdeal{Start: make([]int, n), End: make([]int, n), Edge: newMatrix(n), CEdge: newMatrix(n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if p.Edge[i][j] > 0 && c.Of[i] != c.Of[j] {
				g.CEdge[i][j] = p.Edge[i][j]
			}
		}
	}
	for _, i := range order {
		start := 0
		for j := 0; j < n; j++ {
			if p.Edge[j][i] > 0 {
				if t := g.End[j] + g.CEdge[j][i]; t > start {
					start = t
				}
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
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if g.CEdge[j][i] > 0 {
				g.Edge[j][i] = g.Start[i] - g.End[j]
			}
		}
	}
	return g, nil
}

// denseCritical is the critical analysis with its n×n crit_edge matrix.
type denseCritical struct {
	ProbEdge, AbsEdge [][]int
	Degree            []int
	OnCriticalPath    []bool
}

func denseAnalyze(p *graph.Problem, c *graph.Clustering, g *denseIdeal, mode critical.Propagation) *denseCritical {
	n := p.NumTasks()
	a := &denseCritical{
		ProbEdge:       newMatrix(n),
		AbsEdge:        newMatrix(c.K),
		Degree:         make([]int, c.K),
		OnCriticalPath: make([]bool, n),
	}
	var worklist []int
	for _, i := range g.LatestTasks {
		if !a.OnCriticalPath[i] {
			a.OnCriticalPath[i] = true
			worklist = append(worklist, i)
		}
	}
	for len(worklist) > 0 {
		i := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		for j := 0; j < n; j++ {
			switch mode {
			case critical.Paper:
				if g.CEdge[j][i] > 0 && g.Edge[j][i] == g.CEdge[j][i] {
					a.ProbEdge[j][i] = g.CEdge[j][i]
					if !a.OnCriticalPath[j] {
						a.OnCriticalPath[j] = true
						worklist = append(worklist, j)
					}
				}
			case critical.Full:
				if p.Edge[j][i] > 0 && g.Start[i] == g.End[j]+g.CEdge[j][i] {
					if g.CEdge[j][i] > 0 {
						a.ProbEdge[j][i] = g.CEdge[j][i]
					}
					if !a.OnCriticalPath[j] {
						a.OnCriticalPath[j] = true
						worklist = append(worklist, j)
					}
				}
			}
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if w := a.ProbEdge[j][i]; w > 0 {
				k, l := c.Of[j], c.Of[i]
				a.AbsEdge[k][l] += w
				a.AbsEdge[l][k] += w
			}
		}
	}
	for k := 0; k < c.K; k++ {
		for l := 0; l < c.K; l++ {
			a.Degree[k] += a.AbsEdge[k][l]
		}
	}
	return a
}

// denseEvaluate is the §4.3.4 dataflow evaluation over the dense matrices.
func denseEvaluate(p *graph.Problem, c *graph.Clustering, g *denseIdeal, dist *paths.Table, procOf []int) (start, end []int, total int) {
	order, _ := graph.DenseTopoOrder(p)
	n := p.NumTasks()
	start, end = make([]int, n), make([]int, n)
	for _, i := range order {
		for j := 0; j < n; j++ {
			if p.Edge[j][i] == 0 {
				continue
			}
			t := end[j] + g.CEdge[j][i]*dist.At(procOf[c.Of[j]], procOf[c.Of[i]])
			if t > start[i] {
				start[i] = t
			}
		}
		end[i] = start[i] + p.Size[i]
		if end[i] > total {
			total = end[i]
		}
	}
	return start, end, total
}

type oracleCase struct {
	name string
	p    *graph.Problem
	c    *graph.Clustering
	sys  *graph.System
}

func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase
	for _, ex := range []*experiment.Example{
		experiment.RunningExample(), experiment.CardinalityExample(), experiment.CommCostExample(),
	} {
		cases = append(cases, oracleCase{ex.Name, ex.Prob, ex.Clus, ex.Sys})
	}
	rng := rand.New(rand.NewSource(11))
	for _, ns := range []int{2, 8, 16, 32, 75} {
		p, c, err := gen.TableInstance(ns, int64(ns))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, oracleCase{fmt.Sprintf("table ns=%d", ns), p, c, topology.Random(ns, 0.3, rng)})
	}
	for _, sz := range []struct {
		np   int
		prob float64
	}{{8, 0.4}, {64, 0.3}, {64, 3.0 / 64}, {512, 3.0 / 512}, {2048, 3.0 / 2048}} {
		p, err := gen.Random(gen.RandomConfig{Tasks: sz.np, EdgeProb: sz.prob, Connected: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		sys := topology.Mesh(4, 4)
		if sz.np < 16 {
			sys = topology.Ring(4)
		}
		c, err := (&cluster.Random{Rand: rng}).Cluster(p, sys.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, oracleCase{fmt.Sprintf("random np=%d p=%.3f", sz.np, sz.prob), p, c, sys})
	}
	return cases
}

func TestSparseMatchesDenseOracle(t *testing.T) {
	for _, tc := range oracleCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			p, c := tc.p, tc.c
			order, err := p.TopoOrder()
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := graph.DenseTopoOrder(p); !reflect.DeepEqual(order, want) {
				t.Fatalf("topological order differs from the dense reference")
			}

			g, err := ideal.Derive(p, c)
			if err != nil {
				t.Fatal(err)
			}
			dg, err := denseDerive(p, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g.Start, dg.Start) || !reflect.DeepEqual(g.End, dg.End) ||
				g.LowerBound != dg.LowerBound || !reflect.DeepEqual(g.LatestTasks, dg.LatestTasks) {
				t.Fatalf("ideal graph differs: bound %d vs dense %d, latest %v vs %v",
					g.LowerBound, dg.LowerBound, g.LatestTasks, dg.LatestTasks)
			}
			for _, e := range p.EdgeList() {
				j, i := e[0], e[1]
				slack := -1
				if dg.CEdge[j][i] > 0 {
					slack = dg.Edge[j][i] - dg.CEdge[j][i]
				}
				if g.Edge(j, i) != dg.Edge[j][i] || g.Slack(j, i) != slack {
					t.Fatalf("edge %d→%d: i_edge/slack %d/%d, dense %d/%d", j, i, g.Edge(j, i), g.Slack(j, i), dg.Edge[j][i], slack)
				}
			}

			for _, mode := range []critical.Propagation{critical.Paper, critical.Full} {
				a := critical.Analyze(p, c, g, mode)
				da := denseAnalyze(p, c, dg, mode)
				var want []critical.Edge
				for j := range da.ProbEdge {
					for i, w := range da.ProbEdge[j] {
						if w > 0 {
							want = append(want, critical.Edge{From: j, To: i, Weight: w})
						}
					}
				}
				if !reflect.DeepEqual(a.ProbEdges, want) {
					t.Fatalf("%v: critical edges %v, dense %v", mode, a.ProbEdges, want)
				}
				if !reflect.DeepEqual(a.AbsEdge, da.AbsEdge) || !reflect.DeepEqual(a.Degree, da.Degree) ||
					!reflect.DeepEqual(a.OnCriticalPath, da.OnCriticalPath) {
					t.Fatalf("%v: abstract edges, degrees or critical-path tasks differ from the dense reference", mode)
				}
			}

			dist := paths.New(tc.sys)
			e, err := schedule.NewEvaluator(p, c, dist)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(p.NumTasks())))
			for trial := 0; trial < 6; trial++ {
				a := schedule.NewAssignment(c.K)
				if trial > 0 {
					a = schedule.FromPerm(rng.Perm(c.K))
				}
				start, end, total := denseEvaluate(p, c, dg, dist, a.ProcOf)
				res := e.Evaluate(a)
				if e.TotalTime(a) != total || res.TotalTime != total ||
					!reflect.DeepEqual(res.Start, start) || !reflect.DeepEqual(res.End, end) {
					t.Fatalf("assignment %v: total %d, dense reference %d", a.ProcOf, res.TotalTime, total)
				}
			}
		})
	}
}
