package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mimdmap/internal/graph"
)

func mustValidate(t *testing.T, s *graph.System) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
}

func TestHypercube(t *testing.T) {
	for dim := 0; dim <= 6; dim++ {
		s := Hypercube(dim)
		mustValidate(t, s)
		n := 1 << uint(dim)
		if s.NumNodes() != n {
			t.Fatalf("dim %d: %d nodes, want %d", dim, s.NumNodes(), n)
		}
		if want := dim * n / 2; s.NumLinks() != want {
			t.Fatalf("dim %d: %d links, want %d", dim, s.NumLinks(), want)
		}
		for v := 0; v < n; v++ {
			if s.Degree(v) != dim {
				t.Fatalf("dim %d: node %d degree %d, want %d", dim, v, s.Degree(v), dim)
			}
		}
	}
}

func TestHypercubePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hypercube(-1) did not panic")
		}
	}()
	Hypercube(-1)
}

func TestMesh(t *testing.T) {
	s := Mesh(3, 4)
	mustValidate(t, s)
	if s.NumNodes() != 12 {
		t.Fatalf("nodes = %d, want 12", s.NumNodes())
	}
	// Links: 3 rows × 3 horizontal + 2×4 vertical = 9+8 = 17.
	if s.NumLinks() != 17 {
		t.Fatalf("links = %d, want 17", s.NumLinks())
	}
	// Corner degree 2, edge degree 3, interior degree 4.
	if s.Degree(0) != 2 || s.Degree(1) != 3 || s.Degree(5) != 4 {
		t.Fatalf("degrees = %d,%d,%d; want 2,3,4", s.Degree(0), s.Degree(1), s.Degree(5))
	}
}

func TestMesh1xN(t *testing.T) {
	s := Mesh(1, 5)
	mustValidate(t, s)
	if s.NumLinks() != 4 {
		t.Fatalf("1x5 mesh links = %d, want 4", s.NumLinks())
	}
}

func TestTorus(t *testing.T) {
	s := Torus(3, 4)
	mustValidate(t, s)
	if s.NumNodes() != 12 {
		t.Fatalf("nodes = %d", s.NumNodes())
	}
	// Every node in a ≥3×≥3 torus has degree 4.
	for v := 0; v < 12; v++ {
		if s.Degree(v) != 4 {
			t.Fatalf("node %d degree %d, want 4", v, s.Degree(v))
		}
	}
	if s.NumLinks() != 24 {
		t.Fatalf("links = %d, want 24", s.NumLinks())
	}
}

func TestTorusDegenerate(t *testing.T) {
	// 1×n torus collapses to a ring; 2×n merges the double wrap links.
	s := Torus(1, 5)
	mustValidate(t, s)
	if s.NumLinks() != 5 {
		t.Fatalf("1x5 torus links = %d, want 5 (ring)", s.NumLinks())
	}
	s = Torus(2, 2)
	mustValidate(t, s)
	if s.NumLinks() != 4 {
		t.Fatalf("2x2 torus links = %d, want 4", s.NumLinks())
	}
}

func TestRingChainStarCompleteTree(t *testing.T) {
	r := Ring(6)
	mustValidate(t, r)
	if r.NumLinks() != 6 {
		t.Fatalf("ring links = %d", r.NumLinks())
	}
	c := Chain(6)
	mustValidate(t, c)
	if c.NumLinks() != 5 {
		t.Fatalf("chain links = %d", c.NumLinks())
	}
	st := Star(6)
	mustValidate(t, st)
	if st.NumLinks() != 5 || st.Degree(0) != 5 {
		t.Fatalf("star wrong: links %d centre degree %d", st.NumLinks(), st.Degree(0))
	}
	k := Complete(6)
	mustValidate(t, k)
	if k.NumLinks() != 15 {
		t.Fatalf("complete links = %d, want 15", k.NumLinks())
	}
	bt := BinaryTree(7)
	mustValidate(t, bt)
	if bt.NumLinks() != 6 {
		t.Fatalf("tree links = %d, want 6", bt.NumLinks())
	}
	if bt.Degree(0) != 2 || bt.Degree(1) != 3 || bt.Degree(3) != 1 {
		t.Fatal("tree degrees wrong")
	}
}

func TestRingSmall(t *testing.T) {
	mustValidate(t, Ring(1))
	s := Ring(2)
	mustValidate(t, s)
	if s.NumLinks() != 1 {
		t.Fatalf("ring-2 links = %d, want 1", s.NumLinks())
	}
}

func TestRandomConnectedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		extra := rng.Float64() * 0.5
		s := Random(n, extra, rng)
		if s.Validate() != nil {
			return false
		}
		return s.NumLinks() >= n-1 // at least the spanning tree
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a := Random(20, 0.2, rand.New(rand.NewSource(42)))
	b := Random(20, 0.2, rand.New(rand.NewSource(42)))
	if !a.Equal(b) {
		t.Fatal("same seed produced different random topologies")
	}
	c := Random(20, 0.2, rand.New(rand.NewSource(43)))
	if a.Equal(c) {
		t.Fatal("different seeds produced identical topologies (suspicious)")
	}
}

func TestByName(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	good := map[string]int{ // spec → expected node count
		"hypercube-3": 8,
		"mesh-3x4":    12,
		"torus-2x5":   10,
		"ring-7":      7,
		"chain-4":     4,
		"star-9":      9,
		"complete-5":  5,
		"btree-6":     6,
		"random-11":   11,
	}
	for spec, want := range good {
		s, err := ByName(spec, rng)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if s.NumNodes() != want {
			t.Errorf("%s: %d nodes, want %d", spec, s.NumNodes(), want)
		}
	}
	bad := []string{"", "mesh", "mesh-3", "mesh-0x4", "hypercube-99", "ring-0",
		"frobnicate-3", "mesh-3x4x5", "random--1", "mesh-ax4"}
	for _, spec := range bad {
		if _, err := ByName(spec, rng); err == nil {
			t.Errorf("ByName accepted %q", spec)
		}
	}
	if _, err := ByName("random-5", nil); err == nil {
		t.Error("random topology without RNG accepted")
	}
}

// TestByNameBoundsNodes: a spec describing more than graph.MaxTextNodes
// processors is rejected, whatever family it names and however large its
// factors; specs at the limit are accepted.
func TestByNameBoundsNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		spec  string
		nodes int // 0: must be rejected
	}{
		{"hypercube-14", 1 << 14},
		{"hypercube-15", 0},
		{"hypercube-20", 0},
		{"debruijn-14", 1 << 14},
		{"debruijn-15", 0},
		{"ccc-10", 10 << 10},
		{"ccc-11", 0},
		{"mesh-128x128", 1 << 14},
		{"mesh-128x129", 0},
		{"torus-1x16384", 1 << 14},
		{"torus-16385x1", 0},
		{"mesh-9223372036854775807x2", 0},
		{"torus-4294967296x4294967296", 0},
		{"ring-16384", 1 << 14},
		{"ring-16385", 0},
		{"ring-200000", 0},
		{"chain-16385", 0},
		{"star-16385", 0},
		{"complete-16385", 0},
		{"btree-16385", 0},
		{"random-16385", 0},
		{"ring-9223372036854775807", 0},
	} {
		s, err := ByName(tc.spec, rng)
		switch {
		case tc.nodes == 0 && err == nil:
			t.Errorf("%s: accepted with %d nodes", tc.spec, s.NumNodes())
		case tc.nodes != 0 && err != nil:
			t.Errorf("%s: %v", tc.spec, err)
		case tc.nodes != 0 && s.NumNodes() != tc.nodes:
			t.Errorf("%s: %d nodes, want %d", tc.spec, s.NumNodes(), tc.nodes)
		}
	}
}

// FuzzTopologySpec: ByName never panics and rejects every spec whose node
// count exceeds graph.MaxTextNodes; on specs small enough to build cheaply
// the predicted count is exact, and the machine is valid and rebuilt
// identically from its spec.
func FuzzTopologySpec(f *testing.F) {
	for _, seed := range []string{"hypercube-4", "mesh-3x4", "torus-2x5", "ring-7",
		"chain-4", "star-9", "complete-5", "btree-6", "random-11", "ccc-3",
		"debruijn-4", "petersen", "hypercube-20", "mesh-99999x99999", "ring-200000"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }
		nodes, _, err := parseSpec(spec, rng())
		if err != nil {
			if _, berr := ByName(spec, rng()); berr == nil {
				t.Fatalf("%q: ByName accepted a spec that does not parse: %v", spec, err)
			}
			return
		}
		if nodes > graph.MaxTextNodes {
			if _, berr := ByName(spec, rng()); berr == nil {
				t.Fatalf("%q: ByName accepted %d nodes, above the limit %d", spec, nodes, graph.MaxTextNodes)
			}
			return
		}
		if nodes > 1024 {
			return // valid, but too large to build on every fuzz input
		}
		s, err := ByName(spec, rng())
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if s.NumNodes() != nodes {
			t.Fatalf("%q built %d nodes, spec predicts %d", spec, s.NumNodes(), nodes)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%q built an invalid system: %v", spec, err)
		}
		if again, _ := ByName(spec, rng()); !s.Equal(again) {
			t.Fatalf("%q did not rebuild identically", spec)
		}
	})
}
