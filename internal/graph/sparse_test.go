package graph

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// DenseTopoOrder is the reference the frozen view's topological order is
// checked against: the original O(n²) Kahn's algorithm over the edge
// matrix, taking the smallest ready task ID by a linear scan. It is
// exported (from a test file) for the external oracle tests.
func DenseTopoOrder(p *Problem) ([]int, error) {
	n := p.NumTasks()
	indeg := make([]int, n)
	for i := range p.Edge {
		for j := range p.Edge[i] {
			if p.Edge[i][j] > 0 {
				indeg[j]++
			}
		}
	}
	order := make([]int, 0, n)
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		min := 0
		for k := 1; k < len(ready); k++ {
			if ready[k] < ready[min] {
				min = k
			}
		}
		v := ready[min]
		ready[min] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for j := range p.Edge[v] {
			if p.Edge[v][j] > 0 {
				indeg[j]--
				if indeg[j] == 0 {
					ready = append(ready, j)
				}
			}
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}

// checkSparseView asserts that every structural query answered from p's
// frozen view agrees with a direct scan of the n×n edge matrix of ref, a
// problem with the same edges built densely (p itself when it has one).
func checkSparseView(t *testing.T, p, ref *Problem) {
	t.Helper()
	n := p.NumTasks()
	edges, comm := 0, 0
	var list [][3]int
	for i := 0; i < n; i++ {
		var preds, predW, succs, succW []int
		for j := 0; j < n; j++ {
			if w := ref.Edge[j][i]; w > 0 {
				preds, predW = append(preds, j), append(predW, w)
			}
			if w := ref.Edge[i][j]; w > 0 {
				succs, succW = append(succs, j), append(succW, w)
				list = append(list, [3]int{i, j, w})
				edges++
				comm += w
			}
		}
		for _, c := range []struct {
			name      string
			got, want []int
		}{
			{"Preds", p.Preds(i), preds},
			{"PredWeights", p.PredWeights(i), predW},
			{"Succs", p.Succs(i), succs},
			{"SuccWeights", p.SuccWeights(i), succW},
		} {
			if len(c.got) != len(c.want) || len(c.want) > 0 && !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s(%d) = %v, matrix gives %v", c.name, i, c.got, c.want)
			}
		}
		if p.InDegree(i) != len(preds) || p.OutDegree(i) != len(succs) {
			t.Fatalf("task %d degrees in/out = %d/%d, matrix gives %d/%d",
				i, p.InDegree(i), p.OutDegree(i), len(preds), len(succs))
		}
	}
	if p.NumEdges() != edges || p.TotalComm() != comm {
		t.Fatalf("NumEdges/TotalComm = %d/%d, matrix gives %d/%d", p.NumEdges(), p.TotalComm(), edges, comm)
	}
	if got := p.EdgeList(); len(got) != len(list) || len(list) > 0 && !reflect.DeepEqual(got, list) {
		t.Fatalf("EdgeList = %v, matrix gives %v", got, list)
	}
	got, gerr := p.TopoOrder()
	want, werr := DenseTopoOrder(ref)
	if !errors.Is(gerr, werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("TopoOrder = %v, %v; dense reference gives %v, %v", got, gerr, want, werr)
	}
}

func TestSparseViewMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := randomDAG(rng, 40)
		if trial%4 == 3 && p.NumTasks() > 1 {
			// Close a cycle through the view-building path as well.
			a, b := rng.Intn(p.NumTasks()), rng.Intn(p.NumTasks())
			if a != b {
				p.SetEdge(a, b, 1)
				p.SetEdge(b, a, 1)
			}
		}
		checkSparseView(t, p, p)
	}
	d := diamond()
	checkSparseView(t, d, d)
	empty := NewProblem(0)
	checkSparseView(t, empty, empty)
}

// TestFreezePointSetEdgeDropsView pins the freeze-point contract: SetEdge
// after the first structural query drops both memos, so a back edge is
// still rejected and a reweighted edge still changes the fingerprint.
func TestFreezePointSetEdgeDropsView(t *testing.T) {
	p := diamond()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.SetEdge(3, 0, 1) // back edge: 0→1→3→0
	if err := p.Validate(); !errors.Is(err, ErrCyclic) {
		t.Fatalf("Validate after a back edge = %v, want ErrCyclic", err)
	}
	if _, err := p.TopoOrder(); !errors.Is(err, ErrCyclic) {
		t.Fatalf("TopoOrder after a back edge = %v, want ErrCyclic", err)
	}

	q := diamond()
	before := q.Fingerprint()
	if q.InDegree(3) != 2 {
		t.Fatalf("InDegree(3) = %d, want 2", q.InDegree(3))
	}
	q.SetEdge(1, 3, 5) // was 4
	if q.Fingerprint() == before {
		t.Fatal("reweighting an edge after Fingerprint left the fingerprint unchanged")
	}
	if got := q.SuccWeights(1); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("SuccWeights(1) after reweight = %v, want [5]", got)
	}
	q.SetEdge(1, 3, 4)
	if q.Fingerprint() != before {
		t.Fatal("restoring the weight did not restore the fingerprint")
	}
}

func TestTopoOrderCallerOwned(t *testing.T) {
	p := diamond()
	first, err := p.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	first[0], first[1] = 99, 98
	again, _ := p.TopoOrder()
	if !reflect.DeepEqual(again, []int{0, 1, 2, 3}) {
		t.Fatalf("TopoOrder after the caller scribbled on a previous result = %v", again)
	}
}

// TestAdjacencyAppendCopies pins the clipped capacity of the shared
// adjacency slices: appending to one must not overwrite the next list.
func TestAdjacencyAppendCopies(t *testing.T) {
	p := diamond()
	_ = append(p.Succs(0), 7)
	_ = append(p.Preds(1), 7)
	if got := p.Succs(1); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("Succs(1) = %v after appending to Succs(0), want [3]", got)
	}
	if got := p.Preds(2); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("Preds(2) = %v after appending to Preds(1), want [0]", got)
	}
}
