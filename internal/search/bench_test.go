package search

import (
	"context"
	"math/rand"
	"testing"

	"mimdmap/internal/schedule"
	"mimdmap/internal/topology"
)

// BenchmarkRefiners measures every registered search strategy on the
// batched swap kernel, one sub-benchmark per registry name, on a Table 1
// style workload (32 clusters on a 5-cube). b.N counts trials: Refine runs
// with termination disabled until b.N trials are spent, and whenever a
// strategy converges early (pairwise local optima, annealing freeze-out)
// the incumbent is re-shuffled to a fresh random assignment with the timer
// stopped, so ns/trial reflects steady-state searching rather than one
// lucky descent.
func BenchmarkRefiners(b *testing.B) {
	for _, name := range RefinerNames() {
		b.Run(name, func(b *testing.B) {
			r, err := RefinerByName(name)
			if err != nil {
				b.Fatal(err)
			}
			e, a := instance(b, topology.Hypercube(5), 1991)
			rng := rand.New(rand.NewSource(1991))
			sess := e.NewSwapSession(a)
			perm := make([]int, a.K())
			budget := Budget{DisableTermination: true}
			trials := 0
			b.ResetTimer()
			for trials < b.N {
				budget.Trials = b.N - trials
				tr := r.Refine(context.Background(), sess, budget, rng)
				if tr.Trials == 0 {
					b.Fatalf("%s spent no trials with budget %d", name, budget.Trials)
				}
				trials += tr.Trials
				if trials >= b.N {
					break
				}
				b.StopTimer()
				schedule.RandPermInto(rng, perm)
				sess.CommitAssign(perm, sess.TryAssign(perm))
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(trials), "ns/trial")
		})
	}
}
