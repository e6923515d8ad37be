package graph

import (
	"fmt"
	"sort"
)

// Clustering assigns every task of a problem graph to one of K clusters.
// It corresponds to the paper's cluster matrix clus_pnode, stored inverted:
// Of[task] = cluster. The paper requires the number of clusters na to equal
// the number of system nodes ns, and every cluster to be non-empty.
type Clustering struct {
	// Of maps each task ID to its cluster ID in [0, K).
	Of []int
	// K is the number of clusters na.
	K int

	// fp memoizes Fingerprint; see the freeze-point contract in
	// fingerprint.go. It also makes Clustering no-copy (vet: copylocks).
	fp fpMemo
}

// NewClustering returns a clustering of n tasks into k clusters with every
// task initially in cluster 0.
func NewClustering(n, k int) *Clustering {
	return &Clustering{Of: make([]int, n), K: k}
}

// NumTasks returns the number of clustered tasks.
func (c *Clustering) NumTasks() int { return len(c.Of) }

// Validate checks that every task has a cluster in range and that every
// cluster is non-empty (the paper's abstraction step treats each cluster as
// one abstract node, so an empty cluster would be a phantom processor).
func (c *Clustering) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("graph: clustering has %d clusters, want > 0", c.K)
	}
	seen := make([]bool, c.K)
	for t, k := range c.Of {
		if k < 0 || k >= c.K {
			return fmt.Errorf("graph: task %d assigned to cluster %d, want [0,%d)", t, k, c.K)
		}
		seen[k] = true
	}
	for k, ok := range seen {
		if !ok {
			return fmt.Errorf("graph: cluster %d is empty", k)
		}
	}
	return nil
}

// Members returns the tasks of cluster k in ascending order (one row of the
// paper's clus_pnode matrix).
func (c *Clustering) Members(k int) []int {
	var m []int
	for t, ck := range c.Of {
		if ck == k {
			m = append(m, t)
		}
	}
	return m
}

// Sizes returns the number of tasks in each cluster.
func (c *Clustering) Sizes() []int {
	sz := make([]int, c.K)
	for _, k := range c.Of {
		if k >= 0 && k < c.K {
			sz[k]++
		}
	}
	return sz
}

// Loads returns the total task execution time placed in each cluster.
func (c *Clustering) Loads(p *Problem) []int {
	load := make([]int, c.K)
	for t, k := range c.Of {
		load[k] += p.Size[t]
	}
	return load
}

// Clone returns a deep copy of the clustering.
func (c *Clustering) Clone() *Clustering {
	d := &Clustering{Of: make([]int, len(c.Of)), K: c.K}
	copy(d.Of, c.Of)
	return d
}

// SameCluster reports whether tasks i and j live in the same cluster.
func (c *Clustering) SameCluster(i, j int) bool { return c.Of[i] == c.Of[j] }

// Canonical relabels clusters in order of first appearance so that two
// clusterings that partition tasks identically compare equal regardless of
// cluster numbering. It returns a new clustering.
func (c *Clustering) Canonical() *Clustering {
	d := NewClustering(len(c.Of), c.K)
	next := 0
	relabel := make(map[int]int, c.K)
	for t, k := range c.Of {
		nk, ok := relabel[k]
		if !ok {
			nk = next
			relabel[k] = nk
			next++
		}
		d.Of[t] = nk
	}
	return d
}

// ClusteredWeight returns the clustered problem edge weight clus_edge[j][i]
// of a problem edge j→i with weight w: w when j and i lie in different
// clusters, 0 when they share one. Precedence constraints between
// same-cluster tasks still exist — evaluation walks every problem edge —
// but their communication is free, since the tasks share a processor.
func (c *Clustering) ClusteredWeight(j, i, w int) int {
	if c.Of[j] == c.Of[i] {
		return 0
	}
	return w
}

// Abstract is the abstract graph Ga: each cluster collapsed to a single
// abstract node, parallel clustered edges between the same pair of clusters
// collapsed into one abstract edge. The paper stores only edge presence
// (abs_edge is 0/1); we additionally keep the summed weight, from which both
// the adjacency and the communication-intensity vector mca are derived.
type Abstract struct {
	// K is the number of abstract nodes na.
	K int
	// Weight[k][l] is the sum of clustered-edge weights between clusters k
	// and l, in either direction (symmetric). 0 means no abstract edge.
	Weight [][]int
}

// BuildAbstract collapses a clustered problem graph into its abstract graph.
func BuildAbstract(p *Problem, c *Clustering) *Abstract {
	a := &Abstract{K: c.K, Weight: make([][]int, c.K)}
	cells := make([]int, c.K*c.K)
	for i := range a.Weight {
		a.Weight[i], cells = cells[:c.K:c.K], cells[c.K:]
	}
	for i := 0; i < p.NumTasks(); i++ {
		ws := p.SuccWeights(i)
		for k, j := range p.Succs(i) {
			if w := c.ClusteredWeight(i, j, ws[k]); w > 0 {
				a.Weight[c.Of[i]][c.Of[j]] += w
				a.Weight[c.Of[j]][c.Of[i]] += w
			}
		}
	}
	return a
}

// HasEdge reports whether abstract nodes k and l are connected
// (abs_edge[k][l] == 1 in the paper).
func (a *Abstract) HasEdge(k, l int) bool { return k != l && a.Weight[k][l] > 0 }

// MCA returns the communication-intensity vector mca: MCA()[k] is the sum of
// the weights of all clustered problem edges incident to cluster k. It is
// used by step 3 of the initial-assignment algorithm to order the abstract
// nodes that carry no critical edges.
func (a *Abstract) MCA() []int {
	mca := make([]int, a.K)
	for k := 0; k < a.K; k++ {
		for l := 0; l < a.K; l++ {
			mca[k] += a.Weight[k][l]
		}
	}
	return mca
}

// Neighbors returns the abstract nodes adjacent to k in ascending order.
func (a *Abstract) Neighbors(k int) []int {
	var ns []int
	for l := 0; l < a.K; l++ {
		if a.HasEdge(k, l) {
			ns = append(ns, l)
		}
	}
	return ns
}

// NumEdges returns the number of (undirected) abstract edges.
func (a *Abstract) NumEdges() int {
	n := 0
	for k := 0; k < a.K; k++ {
		for l := k + 1; l < a.K; l++ {
			if a.Weight[k][l] > 0 {
				n++
			}
		}
	}
	return n
}

// DegreeOrder returns the abstract node IDs sorted by descending MCA,
// breaking ties by ascending ID. It is a convenience for deterministic
// greedy placement.
func (a *Abstract) DegreeOrder() []int {
	mca := a.MCA()
	ids := make([]int, a.K)
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(x, y int) bool {
		if mca[ids[x]] != mca[ids[y]] {
			return mca[ids[x]] > mca[ids[y]]
		}
		return ids[x] < ids[y]
	})
	return ids
}
