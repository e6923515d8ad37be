package schedule

import (
	"math/rand"
	"testing"

	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
	"mimdmap/internal/paths"
	"mimdmap/internal/topology"
)

// benchInstance generates a Table 1–3 style workload via the shared
// gen.TableInstance builder, so these benchmarks and BenchmarkRefiners in
// internal/search measure identical workloads.
func benchInstance(tb testing.TB, sys *graph.System, seed int64) (*Evaluator, *Assignment) {
	tb.Helper()
	ns := sys.NumNodes()
	prob, clus, err := gen.TableInstance(ns, seed)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEvaluator(prob, clus, paths.New(sys))
	if err != nil {
		tb.Fatal(err)
	}
	return e, FromPerm(rand.New(rand.NewSource(seed)).Perm(ns))
}

// benchRefineTrials measures refinement trials/sec: candidate swaps of a
// fixed incumbent drawn ahead and priced SwapLanes at a time, exactly as
// core.refine does. b.N counts trials, not batches. The incumbent never
// changes, so once the K² pairs are priced every batch is a priced-pair
// table hit: this is the memo-hit steady state of a long sweep past a
// local optimum. With cold set, lane 0 is committed after every batch,
// so the table is invalidated and every batch runs the full kernel.
func benchRefineTrials(b *testing.B, sys *graph.System, seed int64, cold bool) {
	e, a := benchInstance(b, sys, seed)
	k := a.K()
	rng := rand.New(rand.NewSource(seed + 1))
	sess := e.NewSwapSession(a)
	var ks, ls, totals [SwapLanes]int
	b.ReportAllocs()
	b.ResetTimer()
	for t := 0; t < b.N; t += SwapLanes {
		for l := 0; l < SwapLanes; l++ {
			ks[l], ls[l] = RandSwapPair(rng, k)
		}
		sess.TrySwapBatch(&ks, &ls, &totals)
		refineBenchSink += totals[0] + totals[SwapLanes-1]
		if cold {
			sess.CommitSwap(ks[0], ls[0], totals[0])
		}
	}
}

// benchRefineScalarCold measures the scalar cold path: each trial is one
// TrySwap committed at once, so the priced-pair table never hits and every
// trial costs one full scalar pass. Against the Cold twins above (one
// 8-lane pass per SwapLanes trials) it measures the cost ratio of the two
// passes, on which the random-swap refiners' choice between batch and
// lane-by-lane pricing rests.
func benchRefineScalarCold(b *testing.B, sys *graph.System, seed int64) {
	e, a := benchInstance(b, sys, seed)
	k := a.K()
	rng := rand.New(rand.NewSource(seed + 1))
	sess := e.NewSwapSession(a)
	b.ReportAllocs()
	b.ResetTimer()
	for t := 0; t < b.N; t++ {
		x, y := RandSwapPair(rng, k)
		total := sess.TrySwap(x, y)
		sess.CommitSwap(x, y, total)
		refineBenchSink += total
	}
}

var refineBenchSink int

func BenchmarkRefineTrialHypercube16(b *testing.B) {
	benchRefineTrials(b, topology.Hypercube(4), 1991, false)
}
func BenchmarkRefineTrialHypercube32(b *testing.B) {
	benchRefineTrials(b, topology.Hypercube(5), 1991, false)
}
func BenchmarkRefineTrialMesh4x4(b *testing.B) {
	benchRefineTrials(b, topology.Mesh(4, 4), 1991, false)
}
func BenchmarkRefineTrialMesh5x8(b *testing.B) {
	benchRefineTrials(b, topology.Mesh(5, 8), 1991, false)
}

// The cold twins commit after every batch, so each one is priced by the
// kernel rather than replayed from the priced-pair table.
func BenchmarkRefineTrialColdHypercube32(b *testing.B) {
	benchRefineTrials(b, topology.Hypercube(5), 1991, true)
}
func BenchmarkRefineTrialColdMesh5x8(b *testing.B) {
	benchRefineTrials(b, topology.Mesh(5, 8), 1991, true)
}

// The scalar cold twins price every trial with its own scalar pass.
func BenchmarkRefineTrialScalarColdHypercube32(b *testing.B) {
	benchRefineScalarCold(b, topology.Hypercube(5), 1991)
}
func BenchmarkRefineTrialScalarColdMesh5x8(b *testing.B) {
	benchRefineScalarCold(b, topology.Mesh(5, 8), 1991)
}

// BenchmarkRefineTotalTime is the scalar fast path: one full evaluation,
// no allocation, reusing the evaluator's scratch arena.
func BenchmarkRefineTotalTime(b *testing.B) {
	e, a := benchInstance(b, topology.Mesh(5, 8), 1991)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refineBenchSink += e.TotalTime(a)
	}
}

// BenchmarkRefineEvaluateInto prices the warm EvaluateInto path that
// service callers use to rescore full schedules without allocating.
func BenchmarkRefineEvaluateInto(b *testing.B) {
	e, a := benchInstance(b, topology.Mesh(5, 8), 1991)
	var res Result
	e.EvaluateInto(a, &res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvaluateInto(a, &res)
		refineBenchSink += res.TotalTime
	}
}
