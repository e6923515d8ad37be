package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mimdmap/internal/cluster"
	"mimdmap/internal/core"
	"mimdmap/internal/fleet"
	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/service"
	"mimdmap/internal/topology"
)

// maxProcs bounds every source of parallelism: client goroutines, solver
// workers and refinement chains. The benchmark is sized for a two-CPU box.
const maxProcs = 2

// entry is one distinct request of a workload's pool.
type entry struct {
	label string
	// body is the request in wire form. req, set only for workloads that
	// send requests in memory, is sent instead; wire-form entries keep no
	// decoded graphs, so the pool does not weigh on the process's memory.
	body  []byte
	req   *service.Request
	chk   *checkInst
	remap bool
	// incumbent is a remap's projected previous assignment priced on the
	// new instance, the bound a warm start must meet; 0 for plain solves.
	incumbent int
}

// workload is one traffic mix: a pool of distinct requests, the seeded
// order the clients issue them in, and the solvers that serve them.
type workload struct {
	name    string
	clients int
	pool    []entry
	// batch is the number of consecutive pool entries, a group, that one
	// operation sends.
	batch int
	// stream[i] is the group of operation i; operations past its end wrap
	// around.
	stream []int
	// minOps is the number of leading operations every run completes, so
	// quality_ratio is averaged over the same requests on every run.
	minOps int
	// warmOps is the number of untimed operations set-up issues.
	warmOps int
	// probes are the pool entries the traced run probes: plain solves
	// covering every machine (and refiner) of the workload.
	probes []int
	// perturb evolves a probed instance for the traced run's remap probe.
	perturb gen.PerturbSpec
	solvers []*service.Solver

	mu   sync.Mutex
	refs map[int]digest // reference digest per pool index
}

var workloadNames = []string{"cold-large", "refine-long", "serve-mix"}

func buildWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var (
		w   *workload
		err error
	)
	switch name {
	case "cold-large":
		w, err = buildColdLarge(rng)
	case "refine-long":
		w, err = buildRefineLong(rng)
	case "serve-mix":
		w, err = buildServeMix(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	w.name = name
	if w.batch == 0 {
		w.batch = 1
	}
	if w.refs == nil {
		w.refs = make(map[int]digest)
	}
	return w, w.warmUp()
}

// tableProblem is a connected random DAG with the paper's Table 1–3
// density and weights (edge factor 3, task sizes [1,20], edge weights
// [1,5]) at any size, randomly clustered onto k processors.
func tableProblem(np, k int, rng *rand.Rand) (*graph.Problem, *graph.Clustering, error) {
	p, err := gen.Random(gen.RandomConfig{
		Tasks:         np,
		EdgeProb:      3.0 / float64(np),
		MinTaskSize:   1,
		MaxTaskSize:   20,
		MinEdgeWeight: 1,
		MaxEdgeWeight: 5,
		Connected:     true,
	}, rng)
	if err != nil {
		return nil, nil, err
	}
	c, err := (&cluster.Random{Rand: rng}).Cluster(p, k)
	return p, c, err
}

// Cold-large sizing: np large enough that the dense n×n analysis
// dominates a solve; enough instances that quality_ratio, a mean over one
// pass of the pool, varies little from seed to seed.
const (
	coldLargeTasks     = 2048
	coldLargeInstances = 12
)

// buildColdLarge: sequential wire-form cold solves (NoCache) of np=2048
// instances on 64 processors, alternating mesh-8x8 and hypercube-6, with
// the paper's default refinement budget of ns trials.
func buildColdLarge(rng *rand.Rand) (*workload, error) {
	topos := []string{"mesh-8x8", "hypercube-6"}
	w := &workload{
		clients: 1,
		solvers: []*service.Solver{service.NewSolver(1)},
		perturb: gen.PerturbSpec{GrowTasks: 8, ResizeTasks: 0.01},
	}
	for i := 0; i < coldLargeInstances; i++ {
		topo := topos[i%len(topos)]
		sys, err := topology.ByName(topo, nil)
		if err != nil {
			return nil, err
		}
		p, c, err := tableProblem(coldLargeTasks, sys.NumNodes(), rng)
		if err != nil {
			return nil, err
		}
		req := &service.Request{Problem: p, Clustering: c, Topology: topo, Seed: 1 + rng.Int63n(1<<30), NoCache: true}
		e, err := newEntry(fmt.Sprintf("%s#%d", topo, i), req, topo, sys, nil)
		if err != nil {
			return nil, err
		}
		w.pool = append(w.pool, e)
	}
	w.stream = cycle(len(w.pool))
	w.minOps = len(w.pool)
	w.warmOps = len(topos)
	w.probes = cycle(len(topos))
	return w, nil
}

// refineRefiners are the strategies refine-long rotates over.
var refineRefiners = []string{"paper", "pairwise", "anneal", "portfolio"}

// trioMachines returns the Table 1–3 machines: hypercube-32, mesh-4x4 and
// a random 24-node machine, with the spec each travels under ("" = as
// text, since a random machine's shape depends on its seed).
func trioMachines(rng *rand.Rand) ([]*graph.System, []string) {
	return []*graph.System{topology.Hypercube(5), topology.Mesh(4, 4), topology.Random(24, 0.08, rng)},
		[]string{"hypercube-5", "mesh-4x4", ""}
}

// refineInstances is the number of refine-long instances per trio
// machine; each is solved under every refiner, and instance i of every
// machine makes up operation i.
const refineInstances = 32

// buildRefineLong: in-memory NoCache requests over the Table 1–3 trio,
// rotating refiners with a 200·ns trial budget and two chains, so the
// search layer and the swap kernel do nearly all the work. An operation
// is one SolveBatch of one instance per machine under all four refiners —
// a client racing strategies across the trio — so operations cost alike,
// where single requests would split into fast (paper, pairwise) and slow
// (anneal, portfolio) halves with the median on the gap between them.
// The lower-bound exit is off: every request spends its whole budget, so
// a run's cost does not hinge on how many instances happen to be easy,
// and no chain is cancelled, so multi-start results reproduce in full.
// The two chains run one after the other: a request that held both CPUs
// would wait on whichever a neighbouring tenant slowed, which made run
// times swing far more than on one CPU.
func buildRefineLong(rng *rand.Rand) (*workload, error) {
	systems, topos := trioMachines(rng)
	w := &workload{
		clients: 1,
		batch:   len(systems) * len(refineRefiners),
		solvers: []*service.Solver{service.NewSolver(1)},
		perturb: tablePerturb,
	}
	for i := 0; i < refineInstances; i++ {
		for m, sys := range systems {
			ns := sys.NumNodes()
			p, c, err := gen.TableInstance(ns, rng.Int63())
			if err != nil {
				return nil, err
			}
			for _, ref := range refineRefiners {
				req := &service.Request{
					Problem:    p,
					Clustering: c,
					Refiner:    ref,
					Seed:       1 + rng.Int63n(1<<30),
					NoCache:    true,
					Options: core.Options{
						MaxRefinements:     200 * ns,
						Starts:             maxProcs,
						Workers:            1,
						DisableTermination: true,
					},
				}
				if topos[m] == "" {
					req.System = sys
				} else {
					req.Topology = topos[m]
				}
				e, err := newEntry(fmt.Sprintf("%s#%d/%s", machineName(sys, topos[m]), i, ref), req, topos[m], sys, nil)
				if err != nil {
					return nil, err
				}
				e.req = req
				w.pool = append(w.pool, e)
			}
		}
	}
	w.stream = cycle(refineInstances)
	w.minOps = refineInstances
	w.warmOps = 1
	w.probes = cycle(w.batch)
	return w, nil
}

// Serve-mix sizing: instancesPerMachine × len(trio) instances, each solved
// under seedsPerInstance request seeds, plus one remap per instance. The
// per-replica response cache holds serveCacheCap entries, fewer than the
// pool, so the LRU evicts.
const (
	instancesPerMachine = 8
	seedsPerInstance    = 4
	serveCacheCap       = 32
	remapShare          = 0.2
	serveOps            = 1 << 18
	serveWarmOps        = 2000
	serveMinOps         = 4000
)

// tablePerturb evolves a Table-style instance for a remap: two new tasks,
// re-drawn weights on a few tasks and edges, and one new processor.
var tablePerturb = gen.PerturbSpec{GrowTasks: 2, ResizeTasks: 0.05, ReweightEdges: 0.05, AddProcs: 1}

// buildServeMix: two closed-loop clients against a two-replica fleet
// (ring-owned caches with forwarding, admission control), every request in
// wire form, Zipf-popular draws over a pool larger than each replica's
// cache, and about one operation in five a Remap of an evolved instance.
func buildServeMix(rng *rand.Rand) (*workload, error) {
	systems, topos := trioMachines(rng)
	ref := service.NewSolver(1)
	ctx := context.Background()
	w := &workload{clients: maxProcs, perturb: tablePerturb, refs: make(map[int]digest)}
	solves := make([][]int, len(systems)) // pool indices by machine
	remaps := make([][]int, len(systems))
	for m, sys := range systems {
		for i := 0; i < instancesPerMachine; i++ {
			p, c, err := gen.TableInstance(sys.NumNodes(), rng.Int63())
			if err != nil {
				return nil, err
			}
			var base *service.Response
			for s := 0; s < seedsPerInstance; s++ {
				req := &service.Request{Problem: p, Clustering: c, Seed: 1 + rng.Int63n(1<<30), Options: core.Options{Workers: 1}}
				if topos[m] == "" {
					req.System = sys
				} else {
					req.Topology = topos[m]
				}
				e, err := newEntry(fmt.Sprintf("%s#%d/s%d", machineName(sys, topos[m]), i, s), req, topos[m], sys, nil)
				if err != nil {
					return nil, err
				}
				resp, err := refSolve(ctx, ref, req, nil)
				if err != nil {
					return nil, err
				}
				if base == nil {
					base = resp
				}
				w.refs[len(w.pool)] = digestOf(resp)
				solves[m] = append(solves[m], len(w.pool))
				w.pool = append(w.pool, e)
			}
			mut, err := gen.Perturb(gen.Instance{Problem: p, System: sys}, tablePerturb, rng.Int63())
			if err != nil {
				return nil, err
			}
			mc, err := (&cluster.Random{Rand: rng}).Cluster(mut.Problem, mut.System.NumNodes())
			if err != nil {
				return nil, err
			}
			req := &service.Request{Problem: mut.Problem, System: mut.System, Clustering: mc, Seed: 1 + rng.Int63n(1<<30), Options: core.Options{Workers: 1}}
			e, err := newEntry(fmt.Sprintf("%s#%d/remap", machineName(sys, topos[m]), i), req, "", mut.System, base)
			if err != nil {
				return nil, err
			}
			resp, err := refSolve(ctx, ref, req, base)
			if err != nil {
				return nil, err
			}
			w.refs[len(w.pool)] = digestOf(resp)
			remaps[m] = append(remaps[m], len(w.pool))
			w.pool = append(w.pool, e)
		}
	}
	for _, idx := range solves {
		w.probes = append(w.probes, idx[:2]...)
	}
	solveRank, remapRank := popularity(solves, rng), popularity(remaps, rng)
	zs := rand.NewZipf(rng, 1.1, 2, uint64(len(solveRank)-1))
	zr := rand.NewZipf(rng, 1.1, 2, uint64(len(remapRank)-1))
	w.stream = make([]int, serveOps)
	for i := range w.stream {
		if rng.Float64() < remapShare {
			w.stream[i] = remapRank[zr.Uint64()]
		} else {
			w.stream[i] = solveRank[zs.Uint64()]
		}
	}
	w.minOps = serveMinOps
	w.warmOps = serveWarmOps
	w.solvers = newFleet(maxProcs)
	return w, nil
}

// popularity orders pool entries by Zipf rank: shuffled within each
// machine, then dealt round-robin across machines, so every seed's hot
// set mixes machine sizes in the same proportions.
func popularity(byMachine [][]int, rng *rand.Rand) []int {
	longest := 0
	for _, idx := range byMachine {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		longest = max(longest, len(idx))
	}
	var out []int
	for r := 0; r < longest; r++ {
		for _, idx := range byMachine {
			if r < len(idx) {
				out = append(out, idx[r])
			}
		}
	}
	return out
}

// refSolve answers req (a Remap from prev when prev is set) on the
// reference solver, uncached, and checks the answer: the reference digest
// the fleet's responses must reproduce.
func refSolve(ctx context.Context, s *service.Solver, req *service.Request, prev *service.Response) (*service.Response, error) {
	r := *req
	r.NoCache = true
	var (
		resp *service.Response
		err  error
	)
	if prev != nil {
		resp, err = s.Remap(ctx, prev, &r)
	} else {
		resp, err = s.Solve(ctx, &r)
	}
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	return resp, nil
}

// newFleet wires n solvers into an in-process fleet the way mapserve's
// cluster mode does over HTTP: a rendezvous ring owns each fingerprint,
// non-owners forward the fill to the owner, and each replica admits at
// most maxProcs executions with a queue deep enough that nothing is shed
// at this load.
func newFleet(n int) []*service.Solver {
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("replica-%d", i)
	}
	solvers := make([]*service.Solver, n)
	for i := range solvers {
		solvers[i] = service.NewSolver(1)
		solvers[i].MaxCachedResults = serveCacheCap
		solvers[i].Admission = fleet.NewAdmission(maxProcs, 4*maxProcs, 10*time.Second, nil)
	}
	byName := make(map[string]*service.Solver, n)
	for i, p := range peers {
		byName[p] = solvers[i]
	}
	for i, s := range solvers {
		ring, err := fleet.NewRing(peers[i], peers)
		if err != nil {
			panic(err) // generated, distinct, non-empty names
		}
		s.Forward = func(ctx context.Context, key string, req *service.Request) (*service.Response, string, error) {
			owner := ring.Owner(key)
			if owner == ring.Self() {
				return nil, "", nil
			}
			log := spanLogFrom(ctx)
			id := log.begin("fleet.forward")
			defer log.end(id)
			local := *req
			local.LocalOnly = true
			resp, err := byName[owner].Solve(ctx, &local)
			if err != nil {
				return nil, "", err
			}
			return resp, owner, nil
		}
	}
	return solvers
}

// newEntry renders req in wire form and builds its check model. prev, when
// set, makes the entry a remap from that response.
func newEntry(label string, req *service.Request, topo string, sys *graph.System, prev *service.Response) (entry, error) {
	body, err := encodeWire(req, topo, prev)
	if err != nil {
		return entry{}, err
	}
	chk, err := newCheckInst(req.Problem, req.Clustering, sys)
	if err != nil {
		return entry{}, err
	}
	e := entry{label: label, body: body, chk: chk}
	if prev != nil {
		e.remap = true
		proj, _, err := graph.ProjectAssignment(prev.Result.Assignment.ProcOf, sys.NumNodes())
		if err != nil {
			return entry{}, err
		}
		e.incumbent = chk.makespan(proj, make([]int, len(chk.size)))
	}
	return e, nil
}

func machineName(sys *graph.System, topo string) string {
	if topo != "" {
		return topo
	}
	return fmt.Sprintf("random-%d", sys.NumNodes())
}

func cycle(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// warmUp runs warmOps untimed operations so lazy state (distance tables,
// machines built from specs, response caches) is in place before timing.
// They are taken from the end of the stream, which a timed loop reaches
// only when the stream is a short cycle over the pool. Every warm-up
// response is checked too.
func (w *workload) warmUp() error {
	ops := w.stream[len(w.stream)-w.warmOps:]
	ctx := context.Background()
	var ck checker
	for i, g := range ops {
		if _, err := w.do(ctx, i, g, nil, &ck); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// do issues operation i, the stream's group g, on its replica and checks
// every response. A group of one entry is one Solve or Remap, its wire
// body decoded first as the server would; a larger group is one
// SolveBatch of its entries' in-memory requests.
func (w *workload) do(ctx context.Context, i, g int, log *spanLog, ck *checker) ([]*service.Response, error) {
	solver := w.solvers[i%len(w.solvers)]
	first := g * w.batch
	if w.batch > 1 {
		reqs := make([]*service.Request, w.batch)
		for j := range reqs {
			r := *w.pool[first+j].req
			reqs[j] = &r
		}
		id := log.begin("service.batch")
		resps, err := solver.SolveBatch(ctx, reqs)
		log.end(id)
		if err != nil {
			return nil, err
		}
		for j, resp := range resps {
			if err := w.verify(first+j, resp, ck); err != nil {
				return nil, err
			}
		}
		return resps, nil
	}
	e := &w.pool[first]
	var (
		req  *service.Request
		prev *service.Response
		err  error
	)
	if e.req == nil {
		id := log.begin("graph.decode")
		req, prev, err = decodeWire(e.body)
		log.end(id)
		if err != nil {
			return nil, err
		}
	} else {
		r := *e.req
		req = &r
	}
	var resp *service.Response
	if prev != nil {
		id := log.begin("service.remap")
		resp, err = solver.Remap(ctx, prev, req)
		log.end(id)
	} else {
		id := log.begin("service.solve")
		resp, err = solver.Solve(ctx, req)
		log.end(id)
		if err == nil {
			log.rename(id, solveSpanName(resp))
		}
	}
	if err != nil {
		return nil, err
	}
	return []*service.Response{resp}, w.verify(first, resp, ck)
}

// verify runs the output check and the determinism digest on the
// response to pool entry idx.
func (w *workload) verify(idx int, resp *service.Response, ck *checker) error {
	e := &w.pool[idx]
	if resp.Err != nil {
		return fmt.Errorf("%s: %w", e.label, resp.Err)
	}
	if err := ck.check(e.chk, resp, e.incumbent); err != nil {
		return fmt.Errorf("%s: output check: %w", e.label, err)
	}
	return w.matchDigest(idx, digestOf(resp))
}

// solveSpanName splits Solve spans by how the pipeline answered.
func solveSpanName(r *service.Response) string {
	switch {
	case r.Diagnostics.CacheHit:
		return "service.hit"
	case r.Diagnostics.Coalesced:
		return "service.coalesced"
	default:
		return "service.miss"
	}
}

var errDigest = errors.New("determinism digest differs from the reference response")

// matchDigest compares a response's digest with the reference for its
// pool entry; the first response of an entry without a set-up reference
// becomes the reference.
func (w *workload) matchDigest(idx int, d digest) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	ref, ok := w.refs[idx]
	if !ok {
		w.refs[idx] = d
		return nil
	}
	if ref != d {
		return fmt.Errorf("%s: %w", w.pool[idx].label, errDigest)
	}
	return nil
}

// stats sums the solvers' counters.
func (w *workload) stats() (st service.Stats, adm fleet.AdmissionStats) {
	for _, s := range w.solvers {
		x := s.Stats()
		st.Solves += x.Solves
		st.ResultHits += x.ResultHits
		st.ResultMisses += x.ResultMisses
		st.ResultEvictions += x.ResultEvictions
		st.DistHits += x.DistHits
		st.DistMisses += x.DistMisses
		st.Coalesced += x.Coalesced
		st.Remaps += x.Remaps
		st.WarmStarts += x.WarmStarts
		st.Executions += x.Executions
		st.Forwarded += x.Forwarded
		st.ForwardErrors += x.ForwardErrors
		if s.Admission != nil {
			a := s.Admission.Stats()
			adm.Admitted += a.Admitted
			adm.Shed += a.Shed
		}
	}
	return st, adm
}
