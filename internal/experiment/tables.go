package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"mimdmap/internal/baseline"
	"mimdmap/internal/cluster"
	"mimdmap/internal/core"
	"mimdmap/internal/critical"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/parallel"
	"mimdmap/internal/service"
	"mimdmap/internal/stats"
	"mimdmap/internal/textplot"
	"mimdmap/internal/topology"
)

// Config parameterises the §5 table experiments. The zero value selects the
// paper's setup: random problem graphs of 30–300 tasks with random
// clustering, our mapper versus the mean of random mappings, everything
// normalised to the ideal-graph lower bound.
type Config struct {
	// MasterSeed derives every per-instance RNG; the same seed regenerates
	// the same table bit-for-bit. 0 means 1991 (the paper's year).
	MasterSeed int64
	// RandomTrials is how many random mappings are averaged per instance
	// ("several", §5). 0 means 10.
	RandomTrials int
	// Propagation selects the critical-edge propagation mode.
	Propagation critical.Propagation
	// EdgeFactor sets the DAG density: the edge probability between each
	// forward task pair is EdgeFactor/np, giving ≈ EdgeFactor·np/2 edges.
	// 0 means 3 (≈1.5 edges per task). The paper does not publish its
	// generator's density; this default reproduces the paper's result
	// shape (DefaultSweep varies the weights around it).
	EdgeFactor float64
	// TaskSizeMax and EdgeWeightMax bound the uniform weights [1,max].
	// Zeros mean 20 and 5: computation-heavy programs, as needed to
	// reproduce the paper's near-bound results.
	TaskSizeMax, EdgeWeightMax int
	// TasksPerProcMin and TasksPerProcMax bound the ratio np/ns per
	// experiment (np is clamped to the paper's [30,300] afterwards).
	// Zeros mean [3,6].
	TasksPerProcMin, TasksPerProcMax int
	// Workers bounds how many experiments run concurrently; 0 means one
	// worker per available CPU and 1 forces the fully sequential path.
	// With Starts > 1 it also caps the refinement chains inside each
	// mapping, so total concurrency never exceeds Workers². Every
	// instance derives its RNGs from its own seed, so results are
	// byte-identical at any worker count.
	Workers int
	// Starts is the number of concurrent multi-start refinement chains per
	// mapping (core.Options.Starts). 0 or 1 reproduce the paper's single
	// chain.
	Starts int
	// Refiner names a registered search strategy replacing the paper's
	// §4.3.3 random-change refinement in the table and sweep mappings
	// ("" = the paper strategy). Resolved through the shared registry, so
	// every name the CLIs accept works here too.
	Refiner string
}

func (c *Config) defaults() {
	if c.MasterSeed == 0 {
		c.MasterSeed = 1991
	}
	if c.RandomTrials == 0 {
		c.RandomTrials = 10
	}
	if c.EdgeFactor == 0 {
		c.EdgeFactor = 3
	}
	if c.TaskSizeMax == 0 {
		c.TaskSizeMax = 20
	}
	if c.EdgeWeightMax == 0 {
		c.EdgeWeightMax = 5
	}
	if c.TasksPerProcMin == 0 {
		c.TasksPerProcMin = 3
	}
	if c.TasksPerProcMax == 0 {
		c.TasksPerProcMax = 6
	}
}

// Row is one experiment line of Tables 1–3.
type Row struct {
	Exp       int     // experiment number (1-based, as in the tables)
	Topology  string  // system graph name
	NP, NS    int     // problem and system sizes
	Bound     int     // ideal-graph lower bound (the tables' 100%)
	OursTime  int     // total time of our mapping
	RandomAvg float64 // mean total time of random mappings
	OursPct   float64 // OursTime as % of Bound (table column 2)
	RandomPct float64 // RandomAvg as % of Bound (table column 3)
	AtBound   bool    // termination condition fired (provably optimal)
	Refines   int     // refinement trials performed
}

// Improvement is the table's fourth column: percentage points of total time
// saved versus random mapping.
func (r Row) Improvement() float64 { return r.RandomPct - r.OursPct }

// TableResult is one regenerated table plus its figure.
type TableResult struct {
	Name    string // e.g. "Table 1 (hypercubes)"
	FigName string // e.g. "Fig. 25"
	Rows    []Row
	// AtBound counts the rows where the termination condition fired — the
	// statistic §5 reports alongside Figs. 26 and 27.
	AtBound int
}

// instanceSpec describes one experiment's machine.
type instanceSpec struct {
	build func(rng *rand.Rand) *graph.System
}

// Instance is one fully generated table experiment: a random problem graph,
// a random clustering, and the machine it is mapped onto.
type Instance struct {
	Prob *graph.Problem
	Clus *graph.Clustering
	Sys  *graph.System
	Seed int64 // base seed the instance was derived from
}

// buildInstance generates the i-th instance of a table deterministically
// from the config's master seed.
func buildInstance(cfg Config, i int, spec instanceSpec) (*Instance, error) {
	// Independent, reproducible RNG streams per instance and purpose.
	seed := cfg.MasterSeed + int64(i)*7919
	genRng := rand.New(rand.NewSource(seed))
	sysRng := rand.New(rand.NewSource(seed + 1))
	clusRng := rand.New(rand.NewSource(seed + 2))

	sys := spec.build(sysRng)
	ns := sys.NumNodes()
	// np scales with ns, clamped to the paper's 30–300 range. §5 reports
	// that np and ns "fluctuate significantly" together across experiments.
	span := cfg.TasksPerProcMax - cfg.TasksPerProcMin
	np := ns * (cfg.TasksPerProcMin + genRng.Intn(span+1))
	if np < 30 {
		np = 30
	}
	if np > 300 {
		np = 300
	}
	prob, err := gen.Random(gen.RandomConfig{
		Tasks:         np,
		EdgeProb:      cfg.EdgeFactor / float64(np),
		MinTaskSize:   1,
		MaxTaskSize:   cfg.TaskSizeMax,
		MinEdgeWeight: 1,
		MaxEdgeWeight: cfg.EdgeWeightMax,
		Connected:     true,
	}, genRng)
	if err != nil {
		return nil, err
	}
	clusterer := &cluster.Random{Rand: clusRng}
	clus, err := clusterer.Cluster(prob, ns)
	if err != nil {
		return nil, err
	}
	return &Instance{Prob: prob, Clus: clus, Sys: sys, Seed: seed}, nil
}

// runTable generates and runs one experiment per spec, fanning the
// independent experiments out across cfg.Workers goroutines. Each instance
// seeds its own RNGs from the master seed, so the resulting table is
// byte-identical to the sequential run at any worker count.
func runTable(cfg Config, name, figName string, specs []instanceSpec) (*TableResult, error) {
	cfg.defaults()
	rows, err := parallel.Map(context.Background(), len(specs), cfg.Workers,
		func(_ context.Context, i int) (Row, error) {
			in, err := buildInstance(cfg, i, specs[i])
			if err != nil {
				return Row{}, fmt.Errorf("experiment %d: %w", i+1, err)
			}
			mapRng := rand.New(rand.NewSource(in.Seed + 3))
			randRng := rand.New(rand.NewSource(in.Seed + 4))
			row, err := RunInstance(in, cfg, mapRng, randRng)
			if err != nil {
				return Row{}, fmt.Errorf("experiment %d: %w", i+1, err)
			}
			row.Exp = i + 1
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	res := &TableResult{Name: name, FigName: figName, Rows: rows}
	for _, row := range rows {
		if row.AtBound {
			res.AtBound++
		}
	}
	return res, nil
}

// meshSpecs returns the machine list of Table 2; shared with the ablations.
func meshSpecs() []instanceSpec {
	shapes := [][2]int{{2, 2}, {2, 3}, {3, 3}, {2, 5}, {3, 4}, {4, 4}, {3, 6}, {4, 5}, {5, 5}, {4, 8}, {5, 8}}
	specs := make([]instanceSpec, len(shapes))
	for i, sh := range shapes {
		sh := sh
		specs[i] = instanceSpec{build: func(*rand.Rand) *graph.System { return topology.Mesh(sh[0], sh[1]) }}
	}
	return specs
}

// MeshInstances generates the Table 2 instance set; the ablation
// experiments re-use it so every strategy sees identical workloads.
func MeshInstances(cfg Config) ([]*Instance, error) {
	cfg.defaults()
	specs := meshSpecs()
	return parallel.Map(context.Background(), len(specs), cfg.Workers,
		func(_ context.Context, i int) (*Instance, error) {
			return buildInstance(cfg, i, specs[i])
		})
}

// RunInstance maps one fully generated instance with our strategy and with
// averaged random mappings, and returns the comparison row. With
// cfg.Starts > 1 the mapping runs that many concurrent refinement chains
// whose extra generators derive from the instance's own seed; chain 0
// always consumes mapRng, so multi-start results are never worse than the
// single-chain run on the same instance.
func RunInstance(in *Instance, cfg Config, mapRng, randRng *rand.Rand) (Row, error) {
	cfg.defaults()
	prob, clus, sys := in.Prob, in.Clus, in.Sys
	opts := core.Options{
		Propagation: cfg.Propagation,
		Rand:        mapRng,
		Starts:      cfg.Starts,
		Workers:     cfg.Workers,
		Seed:        in.Seed + 5,
	}
	if cfg.Refiner != "" {
		refiner, err := service.RefinerByName(cfg.Refiner)
		if err != nil {
			return Row{}, err
		}
		opts.Refiner = refiner
	}
	m, err := core.New(prob, clus, sys, opts)
	if err != nil {
		return Row{}, err
	}
	out, err := m.RunParallel(context.Background())
	if err != nil {
		return Row{}, err
	}
	randomMean, _, _ := baseline.RandomMapping(m.Evaluator(), cfg.RandomTrials, randRng)
	return Row{
		Topology:  sys.Name,
		NP:        prob.NumTasks(),
		NS:        sys.NumNodes(),
		Bound:     out.LowerBound,
		OursTime:  out.TotalTime,
		RandomAvg: randomMean,
		OursPct:   stats.PercentOver(out.LowerBound, float64(out.TotalTime)),
		RandomPct: stats.PercentOver(out.LowerBound, randomMean),
		AtBound:   out.OptimalProven,
		Refines:   out.Refinements,
	}, nil
}

// Table1 regenerates Table 1 / Fig. 25: ten random problem graphs mapped to
// hypercubes of 4–32 processors.
func Table1(cfg Config) (*TableResult, error) {
	dims := []int{2, 3, 3, 4, 4, 4, 5, 5, 3, 4}
	specs := make([]instanceSpec, len(dims))
	for i, d := range dims {
		d := d
		specs[i] = instanceSpec{build: func(*rand.Rand) *graph.System { return topology.Hypercube(d) }}
	}
	return runTable(cfg, "Table 1 (hypercubes)", "Fig. 25", specs)
}

// Table2 regenerates Table 2 / Fig. 26: eleven random problem graphs mapped
// to 2-D meshes of 4–40 processors.
func Table2(cfg Config) (*TableResult, error) {
	return runTable(cfg, "Table 2 (meshes)", "Fig. 26", meshSpecs())
}

// Table3 regenerates Table 3 / Fig. 27: seventeen random problem graphs
// mapped to random connected topologies of 4–40 processors.
func Table3(cfg Config) (*TableResult, error) {
	specs := make([]instanceSpec, 17)
	for i := range specs {
		specs[i] = instanceSpec{build: func(rng *rand.Rand) *graph.System {
			ns := 4 + rng.Intn(37) // [4,40]
			// Sparse random machines (spanning tree + 8% extra links):
			// high diameters make random placement expensive, matching
			// Table 3's position as the paper's worst random-mapping case.
			return topology.Random(ns, 0.08, rng)
		}}
	}
	return runTable(cfg, "Table 3 (random topologies)", "Fig. 27", specs)
}

// Render formats the result in the paper's table layout: experiment number,
// ours and random as integer percentages over the lower bound, improvement.
func (t *TableResult) Render() string {
	headers := []string{"expts", "topology", "np", "ns", "bound", "our approach", "random", "improvement", "at-bound"}
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		atBound := ""
		if r.AtBound {
			atBound = "yes"
		}
		rows[i] = []string{
			fmt.Sprintf("%d", r.Exp),
			r.Topology,
			fmt.Sprintf("%d", r.NP),
			fmt.Sprintf("%d", r.NS),
			fmt.Sprintf("%d", r.Bound),
			fmt.Sprintf("%d", stats.RoundPercent(r.OursPct)),
			fmt.Sprintf("%d", stats.RoundPercent(r.RandomPct)),
			fmt.Sprintf("%d", stats.RoundPercent(r.Improvement())),
			atBound,
		}
	}
	out := t.Name + "\n" + textplot.Table(headers, rows)
	out += fmt.Sprintf("termination condition fired in %d of %d cases\n", t.AtBound, len(t.Rows))
	return out
}

// Histogram renders the companion figure (Figs. 25–27 style).
func (t *TableResult) Histogram() string {
	series := make([]textplot.RangeSeries, len(t.Rows))
	for i, r := range t.Rows {
		series[i] = textplot.RangeSeries{
			Label:   fmt.Sprintf("exp %d", r.Exp),
			Lo:      r.OursPct,
			Hi:      r.RandomPct,
			AtBound: r.AtBound,
		}
	}
	return textplot.RangeHistogram(t.FigName+" — percentage over lower bound", series, 10)
}

// ImprovementRange returns the smallest and largest improvement over the
// rows — the headline "29 to 77 percent" span of the paper's abstract.
func (t *TableResult) ImprovementRange() (lo, hi float64) {
	if len(t.Rows) == 0 {
		return 0, 0
	}
	lo, hi = t.Rows[0].Improvement(), t.Rows[0].Improvement()
	for _, r := range t.Rows[1:] {
		imp := r.Improvement()
		if imp < lo {
			lo = imp
		}
		if imp > hi {
			hi = imp
		}
	}
	return lo, hi
}
