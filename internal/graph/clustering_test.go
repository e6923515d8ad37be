package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// runningClustering is the 11-task, 4-cluster split used across the repo's
// worked examples: A={0,1,2}, B={3,4,5}, C={6,7,8}, D={9,10}.
func runningClustering() *Clustering {
	c := NewClustering(11, 4)
	c.Of = []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3}
	return c
}

func TestClusteringValidate(t *testing.T) {
	c := runningClustering()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid clustering rejected: %v", err)
	}
	c.Of[0] = 7 // out of range
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-range cluster accepted")
	}
	c = NewClustering(3, 2) // cluster 1 empty
	if err := c.Validate(); err == nil {
		t.Fatal("empty cluster accepted")
	}
	c = &Clustering{Of: []int{0}, K: 0}
	if err := c.Validate(); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestClusteringMembersAndSizes(t *testing.T) {
	c := runningClustering()
	if got := c.Members(1); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("Members(1) = %v", got)
	}
	if got := c.Members(3); !reflect.DeepEqual(got, []int{9, 10}) {
		t.Fatalf("Members(3) = %v", got)
	}
	if got := c.Sizes(); !reflect.DeepEqual(got, []int{3, 3, 3, 2}) {
		t.Fatalf("Sizes = %v", got)
	}
}

func TestClusteringLoads(t *testing.T) {
	p := NewProblem(4)
	p.Size = []int{5, 1, 2, 7}
	c := NewClustering(4, 2)
	c.Of = []int{0, 1, 0, 1}
	if got := c.Loads(p); !reflect.DeepEqual(got, []int{7, 8}) {
		t.Fatalf("Loads = %v, want [7 8]", got)
	}
}

func TestClusteringCloneSameClusterCanonical(t *testing.T) {
	c := runningClustering()
	d := c.Clone()
	d.Of[0] = 3
	if c.Of[0] != 0 {
		t.Fatal("mutating clone changed original")
	}
	if !c.SameCluster(0, 2) || c.SameCluster(0, 3) {
		t.Fatal("SameCluster wrong")
	}
	// Canonical: relabel {2,2,0,0,1} → {0,0,1,1,2}.
	e := NewClustering(5, 3)
	e.Of = []int{2, 2, 0, 0, 1}
	canon := e.Canonical()
	if !reflect.DeepEqual(canon.Of, []int{0, 0, 1, 1, 2}) {
		t.Fatalf("Canonical = %v", canon.Of)
	}
}

func TestClusteredEdgesRemovesIntraCluster(t *testing.T) {
	p := NewProblem(4)
	p.SetEdge(0, 1, 5) // intra (both cluster 0)
	p.SetEdge(1, 2, 3) // inter
	p.SetEdge(2, 3, 2) // intra (both cluster 1)
	c := NewClustering(4, 2)
	c.Of = []int{0, 0, 1, 1}
	if c.ClusteredWeight(0, 1, 5) != 0 || c.ClusteredWeight(2, 3, 2) != 0 {
		t.Fatal("intra-cluster edges not removed")
	}
	if w := c.ClusteredWeight(1, 2, 3); w != 3 {
		t.Fatalf("inter-cluster edge = %d, want 3", w)
	}
}

func TestBuildAbstractWeightsAndMCA(t *testing.T) {
	p := NewProblem(5)
	p.SetEdge(0, 2, 4) // cluster 0 → 1
	p.SetEdge(1, 2, 1) // cluster 0 → 1
	p.SetEdge(2, 4, 2) // cluster 1 → 2
	p.SetEdge(0, 1, 9) // intra cluster 0
	c := NewClustering(5, 3)
	c.Of = []int{0, 0, 1, 2, 2}
	a := BuildAbstract(p, c)
	if a.Weight[0][1] != 5 || a.Weight[1][0] != 5 {
		t.Fatalf("Weight[0][1] = %d, want 5 (symmetric)", a.Weight[0][1])
	}
	if a.Weight[1][2] != 2 {
		t.Fatalf("Weight[1][2] = %d, want 2", a.Weight[1][2])
	}
	if a.Weight[0][2] != 0 {
		t.Fatalf("Weight[0][2] = %d, want 0", a.Weight[0][2])
	}
	if a.HasEdge(0, 0) {
		t.Fatal("self abstract edge reported")
	}
	if !a.HasEdge(0, 1) || a.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if got := a.MCA(); !reflect.DeepEqual(got, []int{5, 7, 2}) {
		t.Fatalf("MCA = %v, want [5 7 2]", got)
	}
	if got := a.Neighbors(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	if got := a.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2", got)
	}
	if got := a.DegreeOrder(); !reflect.DeepEqual(got, []int{1, 0, 2}) {
		t.Fatalf("DegreeOrder = %v, want [1 0 2]", got)
	}
}

func TestAbstractPropertySymmetricAndConsistent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDAG(rng, 20)
		n := p.NumTasks()
		k := 1 + rng.Intn(n)
		c := NewClustering(n, k)
		for i := range c.Of {
			c.Of[i] = rng.Intn(k)
		}
		a := BuildAbstract(p, c)
		// Symmetry and zero diagonal.
		for x := 0; x < k; x++ {
			if a.Weight[x][x] != 0 {
				return false
			}
			for y := 0; y < k; y++ {
				if a.Weight[x][y] != a.Weight[y][x] {
					return false
				}
			}
		}
		// Total abstract weight counts each inter-cluster edge twice.
		inter := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if p.Edge[i][j] > 0 && c.Of[i] != c.Of[j] {
					inter += p.Edge[i][j]
				}
			}
		}
		sum := 0
		for x := 0; x < k; x++ {
			for y := 0; y < k; y++ {
				sum += a.Weight[x][y]
			}
		}
		if sum != 2*inter {
			return false
		}
		// MCA is the row sum.
		mca := a.MCA()
		for x := 0; x < k; x++ {
			row := 0
			for y := 0; y < k; y++ {
				row += a.Weight[x][y]
			}
			if mca[x] != row {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredEdgesPropertySubsetOfProblem(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomDAG(rng, 20)
		n := p.NumTasks()
		k := 1 + rng.Intn(n)
		c := NewClustering(n, k)
		for i := range c.Of {
			c.Of[i] = rng.Intn(k)
		}
		for _, e := range p.EdgeList() {
			i, j, w := e[0], e[1], e[2]
			switch ce := c.ClusteredWeight(i, j, w); {
			case ce != 0 && ce != w:
				return false // weight must be preserved
			case ce != 0 && c.Of[i] == c.Of[j]:
				return false // intra-cluster must be dropped
			case c.Of[i] != c.Of[j] && ce == 0:
				return false // inter-cluster must be kept
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
