// Package gen produces problem graphs: the seeded random task DAGs of the
// paper's experiments (§5), several structured workload families
// (pipelines, fork-join, FFT butterflies, Gaussian elimination, wavefront
// stencils, divide-and-conquer trees) of the kind the paper's introduction
// motivates, and the seeded structural perturbations (Perturb) the online
// remapping harness evolves instances with. All generators are
// deterministic given their *rand.Rand or seed.
//
//mapcheck:deterministic
package gen

import (
	"fmt"
	"math/rand"

	"mimdmap/internal/graph"
)

// RandomConfig parameterises the random problem-graph generator.
type RandomConfig struct {
	// Tasks is np, the number of tasks. The paper uses 30–300.
	Tasks int
	// EdgeProb is the probability of a precedence edge between each
	// forward-ordered task pair. Typical densities: 0.05–0.3.
	EdgeProb float64
	// MinTaskSize and MaxTaskSize bound the uniform task weights
	// (inclusive). Zero values default to [1,10].
	MinTaskSize, MaxTaskSize int
	// MinEdgeWeight and MaxEdgeWeight bound the uniform communication
	// weights (inclusive). Zero values default to [1,10].
	MinEdgeWeight, MaxEdgeWeight int
	// Connected forces every non-source task to have at least one
	// predecessor, avoiding a DAG that decomposes into independent jobs
	// (the paper targets task scheduling, not independent-job scheduling).
	Connected bool
}

func (c *RandomConfig) defaults() error {
	if c.Tasks <= 0 {
		return fmt.Errorf("gen: random DAG needs Tasks > 0, got %d", c.Tasks)
	}
	if c.EdgeProb < 0 || c.EdgeProb > 1 {
		return fmt.Errorf("gen: edge probability %v outside [0,1]", c.EdgeProb)
	}
	if c.MinTaskSize == 0 && c.MaxTaskSize == 0 {
		c.MinTaskSize, c.MaxTaskSize = 1, 10
	}
	if c.MinEdgeWeight == 0 && c.MaxEdgeWeight == 0 {
		c.MinEdgeWeight, c.MaxEdgeWeight = 1, 10
	}
	if c.MinTaskSize < 0 || c.MaxTaskSize < c.MinTaskSize {
		return fmt.Errorf("gen: bad task size range [%d,%d]", c.MinTaskSize, c.MaxTaskSize)
	}
	if c.MinEdgeWeight < 1 || c.MaxEdgeWeight < c.MinEdgeWeight {
		return fmt.Errorf("gen: bad edge weight range [%d,%d]", c.MinEdgeWeight, c.MaxEdgeWeight)
	}
	return nil
}

// Random generates a random problem DAG: tasks are laid out in a random
// topological order, each forward pair becomes an edge with probability
// EdgeProb, and weights are drawn uniformly from the configured ranges.
func Random(cfg RandomConfig, rng *rand.Rand) (*graph.Problem, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	n := cfg.Tasks
	p := graph.NewProblem(n)
	for i := range p.Size {
		p.Size[i] = uniform(rng, cfg.MinTaskSize, cfg.MaxTaskSize)
	}
	// Random topological order: pos[i] is the rank of task i. Edges only go
	// from lower to higher rank, so the graph is acyclic by construction.
	// hasPred is tracked here rather than asked of p: a structural query
	// would freeze p, and every SetEdge after it would force a rebuild.
	perm := rng.Perm(n) // perm[rank] = task
	hasPred := make([]bool, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < cfg.EdgeProb {
				p.SetEdge(perm[a], perm[b], uniform(rng, cfg.MinEdgeWeight, cfg.MaxEdgeWeight))
				hasPred[perm[b]] = true
			}
		}
	}
	if cfg.Connected {
		for b := 1; b < n; b++ {
			task := perm[b]
			if !hasPred[task] {
				p.SetEdge(perm[rng.Intn(b)], task, uniform(rng, cfg.MinEdgeWeight, cfg.MaxEdgeWeight))
			}
		}
	}
	return p, nil
}

// LayeredConfig parameterises the layered random generator, which produces
// DAGs with an explicit depth/width profile — closer to real parallel
// programs than the uniform model.
type LayeredConfig struct {
	// Layers is the number of precedence levels.
	Layers int
	// Width is the number of tasks per layer.
	Width int
	// EdgeProb is the probability of an edge between a task and each task
	// of the next layer. Every task is additionally guaranteed one
	// successor (if a next layer exists) and one predecessor (if a
	// previous layer exists), keeping layers coupled.
	EdgeProb float64
	// Size and weight ranges as in RandomConfig; zeros default to [1,10].
	MinTaskSize, MaxTaskSize     int
	MinEdgeWeight, MaxEdgeWeight int
}

// Layered generates a layered random DAG.
func Layered(cfg LayeredConfig, rng *rand.Rand) (*graph.Problem, error) {
	if cfg.Layers <= 0 || cfg.Width <= 0 {
		return nil, fmt.Errorf("gen: layered DAG needs positive layers and width, got %d×%d", cfg.Layers, cfg.Width)
	}
	if cfg.EdgeProb < 0 || cfg.EdgeProb > 1 {
		return nil, fmt.Errorf("gen: edge probability %v outside [0,1]", cfg.EdgeProb)
	}
	if cfg.MinTaskSize == 0 && cfg.MaxTaskSize == 0 {
		cfg.MinTaskSize, cfg.MaxTaskSize = 1, 10
	}
	if cfg.MinEdgeWeight == 0 && cfg.MaxEdgeWeight == 0 {
		cfg.MinEdgeWeight, cfg.MaxEdgeWeight = 1, 10
	}
	n := cfg.Layers * cfg.Width
	p := graph.NewProblem(n)
	for i := range p.Size {
		p.Size[i] = uniform(rng, cfg.MinTaskSize, cfg.MaxTaskSize)
	}
	id := func(layer, slot int) int { return layer*cfg.Width + slot }
	w := func() int { return uniform(rng, cfg.MinEdgeWeight, cfg.MaxEdgeWeight) }
	// hasPred is tracked locally, as in Random, so p stays unfrozen.
	hasPred := make([]bool, n)
	link := func(src, dst int) {
		wt := w()
		p.SetEdge(src, dst, wt)
		if wt > 0 {
			hasPred[dst] = true
		}
	}
	for layer := 0; layer+1 < cfg.Layers; layer++ {
		for a := 0; a < cfg.Width; a++ {
			src := id(layer, a)
			linked := false
			for b := 0; b < cfg.Width; b++ {
				if rng.Float64() < cfg.EdgeProb {
					link(src, id(layer+1, b))
					linked = true
				}
			}
			if !linked {
				link(src, id(layer+1, rng.Intn(cfg.Width)))
			}
		}
		for b := 0; b < cfg.Width; b++ {
			dst := id(layer+1, b)
			if !hasPred[dst] {
				link(id(layer, rng.Intn(cfg.Width)), dst)
			}
		}
	}
	return p, nil
}

func uniform(rng *rand.Rand, lo, hi int) int {
	if lo == hi {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}
