// Package mimdmap implements the static task-mapping strategy of Yang, Bic
// and Nicolau, "A Mapping Strategy for MIMD Computers" (ICPP 1991 / UC
// Irvine TR 91-35), together with every substrate the paper depends on:
// task-DAG and machine-graph models, clustering, the ideal-graph lower
// bound, critical-edge analysis, assignment evaluation, baseline mappers,
// workload generators, and the paper's full experiment harness.
//
// # The problem
//
// A parallel program is a problem graph: a DAG whose nodes are tasks with
// execution-time weights and whose edges carry communication-time weights.
// The machine is a system graph of ns identical processors. Mapping happens
// in two steps (§1 of the paper): a clustering groups the np tasks into
// na == ns clusters, then the mapping assigns each cluster to a processor.
// The quality measure is the complete execution time of the mapped program —
// not an indirect proxy such as edge cardinality or phased communication
// cost, both of which the paper shows can be optimal yet time-suboptimal.
//
// # The strategy
//
// Mapping the clustered graph onto the fully connected closure of the
// system graph yields the ideal graph, whose makespan is a lower bound on
// any real mapping. Edges of the ideal graph that are tight and lead to a
// latest task are critical: stretching them stretches the program. The
// mapper places clusters joined by critical edges on directly linked
// processors, fills in the rest by communication intensity, then refines
// the non-critical placements with random changes — stopping early if the
// total time ever equals the lower bound, which proves optimality.
//
// # Quick start
//
//	prob := mimdmap.NewProblem(4)
//	prob.Size = []int{2, 1, 1, 2}
//	prob.SetEdge(0, 1, 3) // task 0 feeds task 1, cost 3 per hop
//	prob.SetEdge(0, 2, 1)
//	prob.SetEdge(1, 3, 2)
//	prob.SetEdge(2, 3, 4)
//
//	sys := mimdmap.Ring(4)
//	res, err := mimdmap.Map(prob, mimdmap.IdentityClustering(4), sys, nil)
//	// res.TotalTime, res.LowerBound, res.Assignment.ProcOf ...
//
// The context-first Solver API expresses the same run declaratively and
// scales to batches and services (see Request, Response, Solver):
//
//	resp, err := mimdmap.Solve(ctx, &mimdmap.Request{
//		Problem:   prob,
//		Topology:  "ring-4",
//		Clusterer: "round-robin",
//		Seed:      1,
//	})
//	// resp.Result, resp.Schedule, resp.Diagnostics ...
//
// Package-level functions cover the common paths; the full surface
// (evaluators, critical-edge analysis, baselines, generators, experiment
// harness) is reachable through the returned types and the options struct.
package mimdmap

import (
	"context"
	"io"
	"math/rand"

	"mimdmap/internal/baseline"
	"mimdmap/internal/cluster"
	"mimdmap/internal/core"
	"mimdmap/internal/critical"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/ideal"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/service"
	"mimdmap/internal/topology"
)

// Core model types, aliased from the implementation packages so values flow
// freely between the facade and the internals.
type (
	// Problem is a task DAG: node weights are execution times, edge
	// weights are communication times per system link crossed.
	Problem = graph.Problem
	// System is the undirected processor interconnection topology.
	System = graph.System
	// Clustering maps each task to one of K clusters (K == processors).
	Clustering = graph.Clustering
	// Abstract is the cluster-level graph: clusters as nodes, summed
	// inter-cluster communication as edge weights.
	Abstract = graph.Abstract
	// Assignment maps each cluster to its processor.
	Assignment = schedule.Assignment
	// Evaluator computes schedules and total times for assignments of one
	// (problem, clustering, system) triple.
	Evaluator = schedule.Evaluator
	// Schedule is an evaluated assignment: per-task start/end times, the
	// total time, and the latest tasks.
	Schedule = schedule.Result
	// IdealGraph carries the closure-mapped start/end times, the latest
	// tasks and the lower bound; ideal edge weights and slacks are
	// derived from them on demand.
	IdealGraph = ideal.Graph
	// CriticalAnalysis holds the sorted list of critical problem edges,
	// the critical abstract edges and per-cluster critical degrees.
	CriticalAnalysis = critical.Analysis
	// Result is the outcome of a full mapping run.
	Result = core.Result
	// Options tunes the mapper; the zero value follows the paper.
	Options = core.Options
	// DistanceTable is the all-pairs shortest-path matrix of a machine.
	DistanceTable = paths.Table
	// Clusterer groups tasks into clusters.
	Clusterer = cluster.Clusterer
)

// Propagation modes for the critical-edge analysis (Options.Propagation).
const (
	// PaperPropagation follows §4.2 of the paper literally: criticality
	// walks only across inter-cluster edges.
	PaperPropagation = critical.Paper
	// FullPropagation also walks across tight intra-cluster edges.
	FullPropagation = critical.Full
)

// Refinement moves (Options.Move).
const (
	// RandomSwap swaps two random movable clusters per refinement trial.
	RandomSwap = core.RandomSwap
	// FullReshuffle re-permutes all movable clusters per trial — the
	// literal reading of §4.3.3 step 4(a).
	FullReshuffle = core.FullReshuffle
)

// NewProblem returns a problem graph with n tasks and no edges.
func NewProblem(n int) *Problem { return graph.NewProblem(n) }

// NewSystem returns a system graph with n processors and no links.
func NewSystem(n int) *System { return graph.NewSystem(n) }

// IdentityClustering puts every task in its own cluster, for the np == ns
// case where the problem graph is mapped directly.
func IdentityClustering(n int) *Clustering {
	c := graph.NewClustering(n, n)
	for i := range c.Of {
		c.Of[i] = i
	}
	return c
}

// Map runs the paper's full strategy — ideal graph, critical edges, initial
// assignment, refinement with the lower-bound termination condition — and
// returns the mapping result. opts may be nil for the paper's defaults.
// The clustering must have exactly as many clusters as sys has processors.
// It is a thin wrapper over the Solver API (see Request and Solve),
// preserved for callers that want the classic positional signature; as it
// always has, it runs the single sequential refinement chain
// (opts.Starts is ignored — use MapParallel or Solve for multi-start).
func Map(p *Problem, c *Clustering, sys *System, opts *Options) (*Result, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	o.Starts = 0
	return MapParallel(context.Background(), p, c, sys, &o)
}

// MapParallel runs the strategy with opts.Starts independent refinement
// chains racing concurrently from the same initial assignment (at most
// opts.Workers at a time; 0 means one per CPU) and returns the best
// mapping found. The moment any chain reaches the ideal-graph lower bound
// the others are cancelled — Theorem 3 proves that chain's assignment
// optimal. Chain 0 consumes opts.Rand exactly as Map would, so
// opts.Starts <= 1 is bit-identical to Map; chains beyond the first derive
// their generators from opts.Seed. Cancelling ctx returns the best
// assignment found so far rather than an error. Like Map, it is a thin
// wrapper over the Solver API; invalid inputs therefore surface as a
// *ValidationError wrapping the underlying cause (match the cause with
// errors.As/Is rather than its message text).
func MapParallel(ctx context.Context, p *Problem, c *Clustering, sys *System, opts *Options) (*Result, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	// Preserve the classic default exactly: a nil Rand always meant the
	// fixed seed-1 generator, with Options.Seed feeding only the chains
	// beyond the first. The request-level Seed unification (one seed
	// driving Rand too) belongs to the Solver API alone.
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
	resp, err := new(service.Solver).Solve(ctx, &service.Request{
		Problem:      p,
		System:       sys,
		Clustering:   c,
		Options:      o,
		OmitSchedule: true,
	})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// NewMapper validates the inputs and returns a reusable mapper, exposing
// the evaluator and distance table alongside Run.
func NewMapper(p *Problem, c *Clustering, sys *System, opts *Options) (*core.Mapper, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	return core.New(p, c, sys, o)
}

// NewEvaluator builds an assignment evaluator for one (problem, clustering,
// system) triple, for callers that want to score their own assignments.
func NewEvaluator(p *Problem, c *Clustering, sys *System) (*Evaluator, error) {
	return schedule.NewEvaluator(p, c, paths.New(sys))
}

// DeriveIdeal computes the ideal graph and lower bound of a clustered
// problem (§4.1 of the paper).
func DeriveIdeal(p *Problem, c *Clustering) (*IdealGraph, error) {
	return ideal.Derive(p, c)
}

// AnalyzeCritical derives the critical problem and abstract edges of an
// ideal graph (§4.2 of the paper) under the given propagation mode.
func AnalyzeCritical(p *Problem, c *Clustering, g *IdealGraph, mode critical.Propagation) *CriticalAnalysis {
	return critical.Analyze(p, c, g, mode)
}

// Distances returns the all-pairs shortest-path table of a machine.
func Distances(sys *System) *DistanceTable { return paths.New(sys) }

// Topology constructors (system graphs).
var (
	// Hypercube returns the d-dimensional binary hypercube (2^d nodes).
	Hypercube = topology.Hypercube
	// Mesh returns the rows×cols 2-D mesh.
	Mesh = topology.Mesh
	// Torus returns the rows×cols 2-D torus.
	Torus = topology.Torus
	// Ring returns the n-node cycle.
	Ring = topology.Ring
	// Chain returns the n-node linear array.
	Chain = topology.Chain
	// Star returns the n-node star (node 0 centre).
	Star = topology.Star
	// Complete returns the fully connected machine on n nodes.
	Complete = topology.Complete
	// BinaryTree returns the balanced binary tree on n nodes.
	BinaryTree = topology.BinaryTree
	// RandomTopology returns a random connected machine (spanning tree
	// plus extra links with the given probability).
	RandomTopology = topology.Random
	// TopologyByName parses specs like "hypercube-4" or "mesh-3x5".
	TopologyByName = topology.ByName
)

// Clusterers.
var (
	// RoundRobinClusterer assigns task i to cluster i mod k.
	RoundRobinClusterer Clusterer = cluster.RoundRobin{}
	// BlocksClusterer slices a topological order into contiguous ranges.
	BlocksClusterer Clusterer = cluster.Blocks{}
	// LoadBalanceClusterer is LPT list assignment by task size.
	LoadBalanceClusterer Clusterer = cluster.LoadBalance{}
	// EdgeZeroingClusterer agglomerates across the heaviest edges.
	EdgeZeroingClusterer Clusterer = cluster.EdgeZeroing{}
	// DominantSequenceClusterer is a simplified dominant-sequence (DSC)
	// clusterer: each task joins the predecessor cluster minimising its
	// start time under sequential-cluster semantics.
	DominantSequenceClusterer Clusterer = cluster.DominantSequence{}
)

// RandomClusterer returns the paper's random clustering program seeded by
// rng (nil for a fixed default seed).
func RandomClusterer(rng *rand.Rand) Clusterer { return &cluster.Random{Rand: rng} }

// RandomMapping evaluates trials uniformly random assignments and returns
// their mean total time plus the best assignment found — the baseline of
// the paper's Tables 1–3.
func RandomMapping(e *Evaluator, trials int, rng *rand.Rand) (mean float64, best *Assignment, bestTime int) {
	return baseline.RandomMapping(e, trials, rng)
}

// RandomProblem generates a random task DAG in the style of the paper's §5
// generator. See gen.RandomConfig for the knobs.
func RandomProblem(cfg gen.RandomConfig, rng *rand.Rand) (*Problem, error) {
	return gen.Random(cfg, rng)
}

// RandomProblemConfig is the configuration for RandomProblem.
type RandomProblemConfig = gen.RandomConfig

// Graph I/O in the line-oriented text format shared with the cmd/ tools.
var (
	// ReadProblem parses and validates a problem graph.
	ReadProblem = graph.ReadProblem
	// WriteProblem writes a problem graph.
	WriteProblem = graph.WriteProblem
	// ReadSystem parses and validates a system graph.
	ReadSystem = graph.ReadSystem
	// WriteSystem writes a system graph.
	WriteSystem = graph.WriteSystem
	// ReadClustering parses and validates a clustering.
	ReadClustering = graph.ReadClustering
	// WriteClustering writes a clustering.
	WriteClustering = graph.WriteClustering
)

// Compile-time checks that the I/O variables keep the intended signatures.
var (
	_ func(io.Reader) (*Problem, error) = ReadProblem
	_ func(io.Writer, *Problem) error   = WriteProblem
)
