package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mimdmap/internal/cluster"
	"mimdmap/internal/core"
	"mimdmap/internal/critical"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/ideal"
	"mimdmap/internal/paths"
	"mimdmap/internal/schedule"
	"mimdmap/internal/search"
	"mimdmap/internal/service"
	"mimdmap/internal/topology"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent indexes the enclosing span in the same log (-1 for none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// spanLog collects one goroutine's spans in memory. A nil *spanLog records
// nothing, so the untraced loop runs the same code at the cost of a nil
// check.
type spanLog struct {
	t0    time.Time
	spans []span
	cur   int
	req   int64
}

func newSpanLog(t0 time.Time) *spanLog { return &spanLog{t0: t0, cur: -1} }

// begin opens a span under the current one and returns its index.
func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.t0)), Parent: l.cur, Req: l.req})
	l.cur = len(l.spans) - 1
	return l.cur
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	s := &l.spans[id]
	s.End = int64(time.Since(l.t0))
	l.cur = s.Parent
}

func (l *spanLog) rename(id int, name string) {
	if l != nil {
		l.spans[id].Name = name
	}
}

// timed runs f inside a span.
func (l *spanLog) timed(name string, f func() error) error {
	id := l.begin(name)
	err := f()
	l.end(id)
	return err
}

type spanLogKey struct{}

func withSpanLog(ctx context.Context, l *spanLog) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, spanLogKey{}, l)
}

// spanLogFrom returns the log of the goroutine that owns ctx, or nil.
func spanLogFrom(ctx context.Context) *spanLog {
	l, _ := ctx.Value(spanLogKey{}).(*spanLog)
	return l
}

// durations groups span durations by name, in milliseconds.
func durations(logs []*spanLog) map[string][]float64 {
	out := make(map[string][]float64)
	for _, l := range logs {
		for _, s := range l.spans {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeSpans stores every span as JSON under dir.
func writeSpans(dir, name string, logs []*spanLog) (string, error) {
	var all []span
	for _, l := range logs {
		all = append(all, l.spans...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(all)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// probeStats accumulates what the probe measures besides span durations.
type probeStats struct {
	bytes    map[string][]float64 // allocated bytes per call, by layer metric
	trials   int
	improved int
	refines  int
}

// probe drives one pool entry through every layer the timed loop may not
// reach, with each call timed from outside:
//
//   - graph: decode the wire body, fingerprint it, diff and project it
//     against an evolved copy;
//   - service: a cold solve and a cache hit on a fresh solver, and a
//     Remap of the evolved copy from the cold response;
//   - the public decomposition of the cold solve: Problem.Validate →
//     ideal.Derive → critical.Analyze → paths.New → schedule.NewEvaluator
//     → core.New + RunParallel without refinement → the refiner itself →
//     core.New + RunParallel in full → Evaluator.Evaluate. The full run
//     must reproduce the solve's total time and assignment.
//
// It runs on one goroutine after the traced loop, so allocation deltas
// belong to the measured call alone.
func probe(ctx context.Context, e *entry, perturb gen.PerturbSpec, seed int64, log *spanLog, ps *probeStats) error {
	var ck checker
	var req *service.Request
	if err := ps.measure(log, "graph.decode", func() (err error) {
		req, _, err = decodeWire(e.body)
		return err
	}); err != nil {
		return err
	}
	if e.req != nil {
		// In-memory workloads probe the request they send, which may set
		// options the wire form does not carry.
		r := *e.req
		req = &r
	}
	req.NoCache = false
	solver := service.NewSolver(1)
	if err := log.timed("graph.fingerprint", func() error {
		_, err := solver.Fingerprint(req)
		return err
	}); err != nil {
		return err
	}
	var cold, hit *service.Response
	if err := log.timed("service.miss", func() (err error) {
		cold, err = solver.Solve(ctx, req)
		return err
	}); err != nil {
		return err
	}
	if err := log.timed("service.hit", func() (err error) {
		again := *req
		hit, err = solver.Solve(ctx, &again)
		return err
	}); err != nil {
		return err
	}
	if !hit.Diagnostics.CacheHit {
		return fmt.Errorf("%s: repeated solve missed the cache", e.label)
	}
	for _, r := range []*service.Response{cold, hit} {
		if err := ck.check(e.chk, r, 0); err != nil {
			return fmt.Errorf("%s: %w", e.label, err)
		}
	}
	if digestOf(cold) != digestOf(hit) {
		return fmt.Errorf("%s: cache hit %w", e.label, errDigest)
	}
	if err := replay(ctx, req, cold, log, ps); err != nil {
		return fmt.Errorf("%s: %w", e.label, err)
	}
	return probeRemap(ctx, e, perturb, req, cold, solver, seed, log, &ck)
}

// probeRemap evolves the instance with the workload's perturbation, times
// graph.Diff and graph.ProjectAssignment on it, then remaps the solve and
// checks the warm result against the projected incumbent.
func probeRemap(ctx context.Context, e *entry, perturb gen.PerturbSpec, req *service.Request, prev *service.Response, solver *service.Solver, seed int64, log *spanLog, ck *checker) error {
	rng := rand.New(rand.NewSource(seed))
	mut, err := gen.Perturb(gen.Instance{Problem: req.Problem, System: prev.System}, perturb, rng.Int63())
	if err != nil {
		return err
	}
	clus, err := (&cluster.Random{Rand: rng}).Cluster(mut.Problem, mut.System.NumNodes())
	if err != nil {
		return err
	}
	chk, err := newCheckInst(mut.Problem, clus, mut.System)
	if err != nil {
		return err
	}
	var proj []int
	id := log.begin("graph.diff")
	graph.Diff(prev.Problem, mut.Problem, prev.System, mut.System)
	log.end(id)
	if err := log.timed("graph.project", func() (err error) {
		proj, _, err = graph.ProjectAssignment(prev.Result.Assignment.ProcOf, mut.System.NumNodes())
		return err
	}); err != nil {
		return err
	}
	next := &service.Request{Problem: mut.Problem, System: mut.System, Clustering: clus, Seed: req.Seed, Options: core.Options{Workers: 1}}
	var resp *service.Response
	if err := log.timed("service.remap", func() (err error) {
		resp, err = solver.Remap(ctx, prev, next)
		return err
	}); err != nil {
		return err
	}
	if err := ck.check(chk, resp, chk.makespan(proj, make([]int, len(chk.size)))); err != nil {
		return fmt.Errorf("%s remap: %w", e.label, err)
	}
	return nil
}

// replay runs the public decomposition of one solve and checks that it
// reproduces the pipeline's answer.
func replay(ctx context.Context, req *service.Request, want *service.Response, log *spanLog, ps *probeStats) error {
	p, c := req.Problem, req.Clustering
	sys := req.System
	if sys == nil {
		var err error
		if sys, err = topology.ByName(req.Topology, nil); err != nil {
			return err
		}
	}
	if err := ps.measure(log, "core.validate", p.Validate); err != nil {
		return err
	}
	var ig *ideal.Graph
	if err := ps.measure(log, "ideal.derive", func() (err error) {
		ig, err = ideal.Derive(p, c)
		return err
	}); err != nil {
		return err
	}
	if err := ps.measure(log, "critical.analyze", func() error {
		critical.Analyze(p, c, ig, req.Options.Propagation)
		return nil
	}); err != nil {
		return err
	}
	id := log.begin("paths.new")
	dist := paths.New(sys)
	log.end(id)
	var ev *schedule.Evaluator
	if err := ps.measure(log, "schedule.new_evaluator", func() (err error) {
		ev, err = schedule.NewEvaluator(p, c, dist)
		return err
	}); err != nil {
		return err
	}

	// The options the service's plan stage derives from the request.
	refinerName := req.Refiner
	if refinerName == "" {
		refinerName = "paper"
	}
	refiner, err := search.RefinerByName(refinerName)
	if err != nil {
		return err
	}
	options := func() core.Options {
		o := req.Options
		o.Rand = rand.New(rand.NewSource(req.Seed))
		o.Seed = req.Seed
		o.Refiner = refiner
		o.Dist = dist
		return o
	}
	var initial *core.Result
	if err := log.timed("core.initial", func() error {
		o := options()
		o.MaxRefinements = -1
		m, err := core.New(p, c, sys, o)
		if err != nil {
			return err
		}
		initial, err = m.RunParallel(ctx)
		return err
	}); err != nil {
		return err
	}
	if initial.LowerBound != ig.LowerBound {
		return fmt.Errorf("mapper lower bound %d, ideal.Derive gives %d", initial.LowerBound, ig.LowerBound)
	}
	if err := refineOnce(ctx, req, sys, ev, initial, refiner, want, log, ps); err != nil {
		return err
	}
	var full *core.Result
	if err := log.timed("core.run_parallel", func() error {
		m, err := core.New(p, c, sys, options())
		if err != nil {
			return err
		}
		full, err = m.RunParallel(ctx)
		return err
	}); err != nil {
		return err
	}
	id = log.begin("schedule.evaluate")
	sched := ev.Evaluate(full.Assignment)
	log.end(id)
	got := want.Result
	switch {
	case full.TotalTime != got.TotalTime:
		return fmt.Errorf("decomposition total %d, Solve gave %d", full.TotalTime, got.TotalTime)
	case !full.Assignment.Equal(got.Assignment):
		return fmt.Errorf("decomposition assignment differs from Solve's")
	case sched.TotalTime != full.TotalTime:
		return fmt.Errorf("Evaluate gives %d for a run that reported %d", sched.TotalTime, full.TotalTime)
	}
	return nil
}

// refineOnce runs the request's refiner once, as chain 0 of the mapper
// would, on the initial assignment, timing it apart from the analysis. For
// a single-chain request it must land exactly where Solve did.
func refineOnce(ctx context.Context, req *service.Request, sys *graph.System, ev *schedule.Evaluator, initial *core.Result, refiner search.Refiner, want *service.Response, log *spanLog, ps *probeStats) error {
	budget := req.Options.MaxRefinements
	if budget == 0 {
		budget = sys.NumNodes()
	}
	var free, freeProcs []int
	for k, frozen := range initial.FrozenClusters {
		if !frozen {
			free = append(free, k)
			freeProcs = append(freeProcs, initial.Assignment.ProcOf[k])
		}
	}
	if initial.OptimalProven || budget < 0 || len(free) < 2 {
		return nil
	}
	sess := ev.NewSwapSession(initial.Assignment.Clone())
	b := search.Budget{
		Trials:             budget,
		Free:               free,
		FreeProcs:          freeProcs,
		LowerBound:         initial.LowerBound,
		DisableTermination: req.Options.DisableTermination,
		Rounds:             req.Options.PortfolioRounds,
		Arms:               req.Options.PortfolioArms,
	}
	rng := rand.New(rand.NewSource(req.Seed))
	id := log.begin("search.refine")
	tr := refiner.Refine(ctx, sess, b, rng)
	log.end(id)
	ps.trials += tr.Trials
	ps.improved += tr.Improved
	ps.refines++
	if req.Options.Starts <= 1 && tr.Final != want.Result.TotalTime {
		return fmt.Errorf("refiner alone reaches %d, Solve gave %d", tr.Final, want.Result.TotalTime)
	}
	return nil
}

// measure times f in a span and records the bytes it allocated under
// name + "_bytes".
func (ps *probeStats) measure(log *spanLog, name string, f func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := log.timed(name, f)
	runtime.ReadMemStats(&after)
	if ps.bytes == nil {
		ps.bytes = make(map[string][]float64)
	}
	ps.bytes[name+"_bytes"] = append(ps.bytes[name+"_bytes"], float64(after.TotalAlloc-before.TotalAlloc))
	return err
}
