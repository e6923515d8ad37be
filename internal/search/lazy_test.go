package search

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mimdmap/internal/graph"
	"mimdmap/internal/schedule"
	"mimdmap/internal/topology"
)

// batchPortfolio is the portfolio with its paper and anneal arms replaced
// by the always-batch references.
type batchPortfolio struct{ Portfolio }

func (p *batchPortfolio) Refine(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
	c := p.Portfolio.NewChainState(sess, b, rng).(*portfolioChain)
	for i := range c.arms {
		c.arms[i].ref = batchReference(c.arms[i].name, c.arms[i].ref)
	}
	for !c.RunRound(ctx, nil) {
	}
	return c.Finish()
}

// batchReference returns the always-batch reference of a registered
// refiner: the pre-lazy loop for paper and anneal, a portfolio racing
// those, and the refiner itself for strategies that never priced lazily.
func batchReference(name string, r Refiner) Refiner {
	switch name {
	case "paper":
		return batchPaper{}
	case "anneal":
		return &batchAnneal{}
	case "portfolio":
		return &batchPortfolio{}
	}
	return r
}

// TestLazyPricingMatchesBatchReference: choosing the pricing path from the
// previous round changes no result. For every registered refiner, on Table
// 1–3 style instances, the trace (per-trial totals included), the final
// assignment and the random stream left behind all match the always-batch
// reference — with and without lower-bound termination, with pinned
// clusters, and at budgets that are not a multiple of the queue width, so
// the short tail round runs.
func TestLazyPricingMatchesBatchReference(t *testing.T) {
	systems := []*graph.System{
		topology.Hypercube(4),
		topology.Hypercube(5),
		topology.Mesh(5, 8),
		topology.Random(24, 0.08, rand.New(rand.NewSource(3))),
	}
	for _, name := range RefinerNames() {
		r, err := RefinerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ref := batchReference(name, r)
		for _, sys := range systems {
			for _, seed := range []int64{1, 7, 1991} {
				ev, start := instance(t, sys, seed)
				var pinned []int
				for k := 0; k < start.K(); k++ {
					if k%5 != 0 {
						pinned = append(pinned, k)
					}
				}
				for _, budget := range []int{13, 203, 200 * sys.NumNodes()} {
					for _, free := range [][]int{nil, pinned} {
						// The bound is the best total an unterminated run
						// reaches, so the terminating run stops at it.
						off := Budget{Trials: budget, Free: free, DisableTermination: true, RecordTrials: true}
						on := off
						on.DisableTermination = false
						on.LowerBound = ref.Refine(context.Background(), ev.NewSwapSession(start), off, rand.New(rand.NewSource(seed))).Final
						for _, b := range []Budget{off, on} {
							label := fmt.Sprintf("%s on %s seed %d budget %d pinned %v termination %v",
								name, sys.Name, seed, budget, free != nil, !b.DisableTermination)
							wantSess, gotSess := ev.NewSwapSession(start), ev.NewSwapSession(start)
							wantRng, gotRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
							want := ref.Refine(context.Background(), wantSess, b, wantRng)
							got := r.Refine(context.Background(), gotSess, b, gotRng)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: trace %+v, reference %+v", label, got, want)
							}
							if !reflect.DeepEqual(gotSess.ProcOf(), wantSess.ProcOf()) {
								t.Fatalf("%s: assignment %v, reference %v", label, gotSess.ProcOf(), wantSess.ProcOf())
							}
							if gotRng.Int63() != wantRng.Int63() {
								t.Fatalf("%s: random streams diverged", label)
							}
						}
					}
				}
			}
		}
	}
}

// TestAnnealPricesFewerBatches: annealing accepts often, so most of its
// queues follow a commit; pricing those lane by lane must cut the 8-lane
// passes at least threefold against the always-batch reference, with the
// same output.
func TestAnnealPricesFewerBatches(t *testing.T) {
	sys := topology.Hypercube(5)
	ev, start := instance(t, sys, 1991)
	b := Budget{Trials: 200 * sys.NumNodes(), DisableTermination: true}
	refSess, sess := ev.NewSwapSession(start), ev.NewSwapSession(start)
	want := (&batchAnneal{}).Refine(context.Background(), refSess, b, rand.New(rand.NewSource(1)))
	got := (&Anneal{}).Refine(context.Background(), sess, b, rand.New(rand.NewSource(1)))
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(sess.ProcOf(), refSess.ProcOf()) {
		t.Fatalf("lazy anneal diverged: trace %+v, reference %+v", got, want)
	}
	lazy, batch := sess.Passes(), refSess.Passes()
	t.Logf("%d trials: lazy %+v, always-batch %+v", got.Trials, lazy, batch)
	if 3*lazy.Batch > batch.Batch {
		t.Fatalf("lazy anneal ran %d 8-lane passes, always-batch %d: want at least 3x fewer", lazy.Batch, batch.Batch)
	}
}
