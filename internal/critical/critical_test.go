package critical

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mimdmap/internal/graph"
	"mimdmap/internal/ideal"
)

// runningInstance is the repo's 11-task running example.
func runningInstance() (*graph.Problem, *graph.Clustering) {
	p := graph.NewProblem(11)
	p.Size = []int{2, 1, 1, 1, 2, 1, 2, 1, 1, 2, 2}
	p.SetEdge(0, 1, 1)
	p.SetEdge(1, 2, 1)
	p.SetEdge(3, 4, 1)
	p.SetEdge(4, 5, 1)
	p.SetEdge(6, 7, 1)
	p.SetEdge(7, 8, 1)
	p.SetEdge(2, 3, 2)
	p.SetEdge(5, 6, 2)
	p.SetEdge(8, 9, 3)
	p.SetEdge(2, 10, 1)
	p.SetEdge(5, 10, 1)
	c := graph.NewClustering(11, 4)
	c.Of = []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3}
	return p, c
}

func analyze(t *testing.T, mode Propagation) (*graph.Problem, *graph.Clustering, *Analysis) {
	t.Helper()
	p, c := runningInstance()
	g, err := ideal.Derive(p, c)
	if err != nil {
		t.Fatal(err)
	}
	return p, c, Analyze(p, c, g, mode)
}

func TestPaperModeRunningExample(t *testing.T) {
	_, _, a := analyze(t, Paper)
	// Paper-mode walk: latest task 9; its only clustered predecessor edge
	// 8→9 is tight → critical. Task 8's predecessors are intra-cluster, so
	// the walk stops there.
	if a.ProbWeight(8, 9) != 3 {
		t.Fatalf("edge 8→9 weight = %d, want 3", a.ProbWeight(8, 9))
	}
	if n := a.NumCriticalProbEdges(); n != 1 {
		t.Fatalf("critical edges = %d, want 1", n)
	}
	// Tight-but-not-on-critical-path edge 5→10 must NOT be critical.
	if a.ProbWeight(5, 10) != 0 {
		t.Fatal("edge 5→10 wrongly critical (task 10 is not latest)")
	}
	if got := a.Degree; !reflect.DeepEqual(got, []int{0, 0, 3, 3}) {
		t.Fatalf("Degree = %v, want [0 0 3 3]", got)
	}
	if !a.IsCriticalAbsEdge(2, 3) || a.IsCriticalAbsEdge(0, 1) {
		t.Fatal("critical abstract edges wrong")
	}
	if got := a.CriticalClusters(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("CriticalClusters = %v, want [2 3]", got)
	}
	if a.NumCriticalAbsEdges() != 1 {
		t.Fatalf("NumCriticalAbsEdges = %d, want 1", a.NumCriticalAbsEdges())
	}
	if !a.HasCriticalEdges() {
		t.Fatal("HasCriticalEdges = false")
	}
}

func TestFullModeRunningExample(t *testing.T) {
	_, _, a := analyze(t, Full)
	// Full mode crosses the intra-cluster chains: the whole spine
	// 2→3 (A→B), 5→6 (B→C), 8→9 (C→D) becomes critical.
	want := map[[2]int]int{{2, 3}: 2, {5, 6}: 2, {8, 9}: 3}
	for e, w := range want {
		if a.ProbWeight(e[0], e[1]) != w {
			t.Errorf("edge %d→%d = %d, want %d", e[0], e[1], a.ProbWeight(e[0], e[1]), w)
		}
	}
	if n := a.NumCriticalProbEdges(); n != 3 {
		t.Fatalf("critical edges = %d, want 3", n)
	}
	// 5→10 is tight but leads only to a non-latest task: still not critical.
	if a.ProbWeight(5, 10) != 0 {
		t.Fatal("edge 5→10 wrongly critical in full mode")
	}
	if got := a.Degree; !reflect.DeepEqual(got, []int{2, 4, 5, 3}) {
		t.Fatalf("Degree = %v, want [2 4 5 3]", got)
	}
	// The entire spine of tasks is on the critical path.
	for _, task := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
		if !a.OnCriticalPath[task] {
			t.Errorf("task %d should be on the critical path", task)
		}
	}
	if a.OnCriticalPath[10] {
		t.Error("task 10 is not on the critical path")
	}
}

func TestNoCriticalEdgesWhenComputationDominates(t *testing.T) {
	// One giant independent task dwarfs the communicating chain: the
	// latest task has no predecessors, so nothing is critical.
	p := graph.NewProblem(3)
	p.Size = []int{1, 1, 100}
	p.SetEdge(0, 1, 5)
	c := graph.NewClustering(3, 3)
	c.Of = []int{0, 1, 2}
	g, err := ideal.Derive(p, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Propagation{Paper, Full} {
		a := Analyze(p, c, g, mode)
		if a.HasCriticalEdges() {
			t.Fatalf("%v: unexpected critical edges", mode)
		}
		if len(a.CriticalClusters()) != 0 {
			t.Fatalf("%v: unexpected critical clusters", mode)
		}
	}
}

func TestMultipleLatestTasks(t *testing.T) {
	// Two parallel chains of equal length: both sinks are latest, and both
	// chains' inter-cluster edges are critical.
	p := graph.NewProblem(4)
	p.Size = []int{1, 1, 1, 1}
	p.SetEdge(0, 1, 2) // chain 1: clusters 0→1
	p.SetEdge(2, 3, 2) // chain 2: clusters 2→3
	c := graph.NewClustering(4, 4)
	c.Of = []int{0, 1, 2, 3}
	g, err := ideal.Derive(p, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.LatestTasks) != 2 {
		t.Fatalf("latest tasks = %v, want two", g.LatestTasks)
	}
	a := Analyze(p, c, g, Paper)
	if a.ProbWeight(0, 1) != 2 || a.ProbWeight(2, 3) != 2 {
		t.Fatal("both chains should be critical")
	}
	if got := a.Degree; !reflect.DeepEqual(got, []int{2, 2, 2, 2}) {
		t.Fatalf("Degree = %v", got)
	}
}

func TestPropagationStringer(t *testing.T) {
	if Paper.String() != "paper" || Full.String() != "full" {
		t.Fatal("Propagation names wrong")
	}
	if Propagation(9).String() != "unknown" {
		t.Fatal("unknown mode name wrong")
	}
}

func TestLongestCriticalChainRunningExample(t *testing.T) {
	p, c := runningInstance()
	g, err := ideal.Derive(p, c)
	if err != nil {
		t.Fatal(err)
	}
	chain := LongestCriticalChain(p, g)
	// The spine 0→1→2→3→4→5→6→7→8→9 is the unique tight path to the
	// latest task 9.
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !reflect.DeepEqual(chain, want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
	// Its lengths reconstruct the lower bound exactly.
	total := 0
	for i, task := range chain {
		total += p.Size[task]
		if i+1 < len(chain) {
			next := chain[i+1]
			total += c.ClusteredWeight(task, next, p.Edge[task][next])
		}
	}
	if total != g.LowerBound {
		t.Fatalf("chain length %d ≠ lower bound %d", total, g.LowerBound)
	}
}

func TestLongestCriticalChainProperty(t *testing.T) {
	// For any instance, the extracted chain must start at a source, end at
	// a latest task, be tight at every hop, and sum to the lower bound.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, c := randomClusteredInstance(rng, 20)
		g, err := ideal.Derive(p, c)
		if err != nil {
			return false
		}
		chain := LongestCriticalChain(p, g)
		if len(chain) == 0 {
			return false
		}
		if p.InDegree(chain[0]) != 0 && g.Start[chain[0]] != 0 {
			return false
		}
		if !g.IsLatest(chain[len(chain)-1]) {
			return false
		}
		total := 0
		for i, task := range chain {
			total += p.Size[task]
			if i+1 < len(chain) {
				next := chain[i+1]
				if p.Edge[task][next] == 0 {
					return false
				}
				if g.Start[next] != g.End[task]+c.ClusteredWeight(task, next, p.Edge[task][next]) {
					return false
				}
				total += c.ClusteredWeight(task, next, p.Edge[task][next])
			}
		}
		return total == g.LowerBound
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// randomClusteredInstance generates a random problem + clustering pair.
func randomClusteredInstance(rng *rand.Rand, maxN int) (*graph.Problem, *graph.Clustering) {
	n := 2 + rng.Intn(maxN-1)
	p := graph.NewProblem(n)
	for i := range p.Size {
		p.Size[i] = rng.Intn(8)
	}
	perm := rng.Perm(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < 0.3 {
				p.SetEdge(perm[a], perm[b], 1+rng.Intn(6))
			}
		}
	}
	k := 1 + rng.Intn(n)
	c := graph.NewClustering(n, k)
	for i := range c.Of {
		c.Of[i] = rng.Intn(k)
	}
	return p, c
}

// TestCriticalEdgesAreDefinitionallyCritical verifies Theorems 1–2 against
// the paper's *definition*: an edge is critical iff increasing its clustered
// weight increases the ideal total time. Every edge the analysis marks must
// pass; this holds in both modes (the paper's algorithm is sound, just
// incomplete across intra-cluster hops).
func TestCriticalEdgesAreDefinitionallyCritical(t *testing.T) {
	for _, mode := range []Propagation{Paper, Full} {
		mode := mode
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			p, c := randomClusteredInstance(rng, 18)
			g, err := ideal.Derive(p, c)
			if err != nil {
				return false
			}
			a := Analyze(p, c, g, mode)
			for j := 0; j < p.NumTasks(); j++ {
				for i := 0; i < p.NumTasks(); i++ {
					if a.ProbWeight(j, i) == 0 {
						continue
					}
					// Bump the problem edge weight (the clustered weight
					// follows since j,i are in different clusters).
					q := p.Clone()
					q.Edge[j][i]++
					g2, err := ideal.Derive(q, c)
					if err != nil {
						return false
					}
					if g2.LowerBound <= g.LowerBound {
						return false // marked critical but no effect
					}
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

// TestFullModeIsComplete verifies the converse for Full propagation: every
// definitionally critical clustered edge is marked.
func TestFullModeIsComplete(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, c := randomClusteredInstance(rng, 14)
		g, err := ideal.Derive(p, c)
		if err != nil {
			return false
		}
		a := Analyze(p, c, g, Full)
		for j := 0; j < p.NumTasks(); j++ {
			for i := 0; i < p.NumTasks(); i++ {
				if c.ClusteredWeight(j, i, p.Edge[j][i]) == 0 {
					continue
				}
				q := p.Clone()
				q.Edge[j][i]++
				g2, err := ideal.Derive(q, c)
				if err != nil {
					return false
				}
				definitional := g2.LowerBound > g.LowerBound
				marked := a.ProbWeight(j, i) > 0
				if definitional != marked {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperSubsetOfFull: the paper-mode critical set is contained in the
// full-mode set.
func TestPaperSubsetOfFull(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, c := randomClusteredInstance(rng, 20)
		g, err := ideal.Derive(p, c)
		if err != nil {
			return false
		}
		paper := Analyze(p, c, g, Paper)
		full := Analyze(p, c, g, Full)
		for j := 0; j < p.NumTasks(); j++ {
			for i := 0; i < p.NumTasks(); i++ {
				if paper.ProbWeight(j, i) > 0 && full.ProbWeight(j, i) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAbstractFoldingConsistent: critical abstract edge weights equal the
// sums of the critical problem edges between the same cluster pair, and
// critical degrees are row sums.
func TestAbstractFoldingConsistent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, c := randomClusteredInstance(rng, 20)
		g, err := ideal.Derive(p, c)
		if err != nil {
			return false
		}
		a := Analyze(p, c, g, Paper)
		want := make([][]int, c.K)
		for k := range want {
			want[k] = make([]int, c.K)
		}
		for j := 0; j < p.NumTasks(); j++ {
			for i := 0; i < p.NumTasks(); i++ {
				if w := a.ProbWeight(j, i); w > 0 {
					want[c.Of[j]][c.Of[i]] += w
					want[c.Of[i]][c.Of[j]] += w
				}
			}
		}
		for k := 0; k < c.K; k++ {
			deg := 0
			for l := 0; l < c.K; l++ {
				if a.AbsEdge[k][l] != want[k][l] {
					return false
				}
				deg += want[k][l]
			}
			if a.Degree[k] != deg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
