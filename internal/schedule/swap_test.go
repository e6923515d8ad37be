package schedule

import (
	"math/rand"
	"testing"

	"mimdmap/internal/graph"
	"mimdmap/internal/topology"
)

// Session oracle tests: the priced-pair memo, the scalar pass and the
// interleaved batch kernel must agree with a fresh Evaluator.TotalTime on
// the exact total of every trial of a random swap sequence, across every
// kind of commit the refiners perform — lane commits, blind scalar
// commits, wholesale CommitAssign — and across degenerate (identity,
// duplicate) lanes.

// sessionTestSystems are the machine shapes the walk runs on: regular,
// irregular, and tiny.
func sessionTestSystems(seed int64) []*graph.System {
	return []*graph.System{
		topology.Mesh(4, 4),
		topology.Hypercube(4),
		topology.Random(12, 0.3, rand.New(rand.NewSource(seed))),
		topology.Ring(5),
	}
}

// TestDeltaMatchesFullOverRandomSwapSequences is the session oracle: over
// a long random walk of batched and scalar trials with interleaved
// commits, every total the session prices — from the priced-pair table,
// the scalar pass or the batch kernel — must equal the scalar evaluator on
// the same swapped assignment, and the committed total must equal a fresh
// evaluation of the incumbent after every commit.
func TestDeltaMatchesFullOverRandomSwapSequences(t *testing.T) {
	for _, sys := range sessionTestSystems(17) {
		for _, seed := range []int64{3, 1991} {
			e, a := benchInstance(t, sys, seed)
			k := a.K()
			rng := rand.New(rand.NewSource(seed + 7))
			sess := e.NewSwapSession(a)
			oracle := a.Clone()
			price := func(i, j int) int {
				oracle.Swap(i, j)
				defer oracle.Swap(i, j)
				return e.TotalTime(oracle)
			}

			var ks, ls, totals [SwapLanes]int
			perm := make([]int, k)
			for round := 0; round < 120; round++ {
				for l := 0; l < SwapLanes; l++ {
					ks[l], ls[l] = RandSwapPair(rng, k)
				}
				ks[2], ls[2] = ks[1], ls[1]       // duplicate lane
				ks[SwapLanes-1] = ls[SwapLanes-1] // identity lane
				sess.TrySwapBatch(&ks, &ls, &totals)
				for l := 0; l < SwapLanes; l++ {
					if want := price(ks[l], ls[l]); totals[l] != want {
						t.Fatalf("%s seed %d round %d lane %d: batch total %d, evaluator says %d", sys.Name, seed, round, l, totals[l], want)
					}
				}
				// Scalar trials agree too, including the identity swap.
				si, sj := RandSwapPair(rng, k)
				if round%5 == 0 {
					sj = si
				}
				if got, want := sess.TrySwap(si, sj), price(si, sj); got != want {
					t.Fatalf("%s seed %d round %d: scalar TrySwap(%d,%d) = %d, evaluator says %d", sys.Name, seed, round, si, sj, got, want)
				}

				// Commit something: a priced lane, a blind scalar trial, a
				// wholesale reassignment, or nothing.
				switch round % 4 {
				case 0:
					lane := round / 4 % SwapLanes
					sess.CommitSwap(ks[lane], ls[lane], totals[lane])
					oracle.Swap(ks[lane], ls[lane])
				case 1:
					total := sess.TrySwap(si, sj)
					sess.CommitSwap(si, sj, total)
					oracle.Swap(si, sj)
				case 2:
					RandPermInto(rng, perm)
					total := sess.TryAssign(perm)
					sess.CommitAssign(perm, total)
					copy(oracle.ProcOf, perm)
				}
				if want := e.TotalTime(oracle); sess.TotalTime() != want {
					t.Fatalf("%s seed %d round %d: committed total %d, evaluator says %d", sys.Name, seed, round, sess.TotalTime(), want)
				}
			}
		}
	}
}

// TestDeltaIdentityBatchPricesIncumbent pins that a batch of identity
// lanes prices the committed incumbent in every lane.
func TestDeltaIdentityBatchPricesIncumbent(t *testing.T) {
	e, a := benchInstance(t, topology.Hypercube(3), 11)
	sess := e.NewSwapSession(a)
	var ks, ls, totals [SwapLanes]int
	for l := 0; l < SwapLanes; l++ {
		ks[l], ls[l] = l%a.K(), l%a.K()
	}
	sess.TrySwapBatch(&ks, &ls, &totals)
	for l, got := range totals {
		if got != sess.TotalTime() {
			t.Fatalf("identity lane %d priced %d, incumbent total is %d", l, got, sess.TotalTime())
		}
	}
}

// TestLaneViewsSyncDegenerateLanes pins laneViews.sync's bookkeeping for
// degenerate draws: lanes with k == l, duplicate lanes, and repeated syncs
// after commitSwap must leave procT exactly mirroring the incumbent with
// each lane's swap applied — metamorphically checked against a freshly
// rebuilt view of the same incumbent.
func TestLaneViewsSyncDegenerateLanes(t *testing.T) {
	e, a := benchInstance(t, topology.Mesh(4, 4), 31)
	k := a.K()
	rng := rand.New(rand.NewSource(37))
	sess := e.NewSwapSession(a)
	var ks, ls [SwapLanes]int
	for round := 0; round < 50; round++ {
		switch round % 3 {
		case 0: // all-identity batch
			for l := 0; l < SwapLanes; l++ {
				ks[l], ls[l] = rng.Intn(k), 0
				ls[l] = ks[l]
			}
		case 1: // mixed identity / duplicate / real swaps
			for l := 0; l < SwapLanes; l++ {
				ks[l], ls[l] = RandSwapPair(rng, k)
			}
			ks[0] = ls[0]
			ks[3], ls[3] = ks[1], ls[1]
		default:
			for l := 0; l < SwapLanes; l++ {
				ks[l], ls[l] = RandSwapPair(rng, k)
			}
		}
		sess.lanes.sync(&ks, &ls)

		fresh := newLaneViews(sess.lanes.a)
		fresh.sync(&ks, &ls)
		for i, want := range fresh.procT {
			if sess.lanes.procT[i] != want {
				t.Fatalf("round %d: procT[%d] = %d after incremental sync, fresh rebuild says %d (lane %d, cluster %d)",
					round, i, sess.lanes.procT[i], want, i%SwapLanes, i/SwapLanes)
			}
		}
		// Sometimes commit (forcing the dirty full-refresh path next sync),
		// sometimes sync again immediately (exercising undo/redo).
		if round%2 == 0 {
			i, j := RandSwapPair(rng, k)
			if round%4 == 0 {
				j = i // degenerate commit: swap of a cluster with itself
			}
			sess.lanes.commitSwap(i, j)
		}
	}
}

// TestPricedPairMemoExactAcrossCommits pins the priced-pair table: a
// re-priced pair must return the stored exact total without re-evaluating,
// and any commit that changes the incumbent must invalidate the table so
// stale totals never leak across incumbents.
func TestPricedPairMemoExactAcrossCommits(t *testing.T) {
	e, a := benchInstance(t, topology.Mesh(4, 4), 41)
	k := a.K()
	sess := e.NewSwapSession(a)
	if sess.memoTotal == nil {
		t.Fatalf("memo disabled for K=%d, expected enabled below the bound", k)
	}
	oracle := a.Clone()
	price := func(i, j int) int {
		oracle.Swap(i, j)
		defer oracle.Swap(i, j)
		return e.TotalTime(oracle)
	}

	first := sess.TrySwap(1, 5)
	if want := price(1, 5); first != want {
		t.Fatalf("cold TrySwap(1,5) = %d, evaluator says %d", first, want)
	}
	// The memo hit must return the identical total, for both argument
	// orders (the table is keyed on the unordered pair).
	if again := sess.TrySwap(1, 5); again != first {
		t.Fatalf("memoised TrySwap(1,5) = %d, first priced %d", again, first)
	}
	if rev := sess.TrySwap(5, 1); rev != first {
		t.Fatalf("memoised TrySwap(5,1) = %d, first priced %d", rev, first)
	}

	// Committing an unrelated swap changes the schedule globally; the old
	// entry must not survive.
	accepted := sess.TrySwap(2, 9)
	sess.CommitSwap(2, 9, accepted)
	oracle.Swap(2, 9)
	if got, want := sess.TrySwap(1, 5), price(1, 5); got != want {
		t.Fatalf("post-commit TrySwap(1,5) = %d, evaluator says %d (stale memo?)", got, want)
	}

	// An identity commit leaves the incumbent untouched: memoised totals
	// stay valid (and correct).
	sess.CommitSwap(3, 3, sess.TotalTime())
	if got, want := sess.TrySwap(1, 5), price(1, 5); got != want {
		t.Fatalf("after identity commit TrySwap(1,5) = %d, evaluator says %d", got, want)
	}

	// A batch re-pricing only known pairs is served from the table and
	// must agree with the evaluator lane by lane.
	var ks, ls, totals [SwapLanes]int
	for lane := 0; lane < SwapLanes; lane++ {
		ks[lane], ls[lane] = 1, 5
	}
	ks[1], ls[1] = 5, 1
	sess.TrySwapBatch(&ks, &ls, &totals)
	for lane, got := range totals {
		if want := price(1, 5); got != want {
			t.Fatalf("memoised batch lane %d = %d, evaluator says %d", lane, got, want)
		}
	}

	// Passes counts each call by the path that priced it: three scalar
	// misses, three TrySwap hits plus the all-hit batch as memo replays,
	// then one batch with a fresh lane and one whole-assignment pass.
	ks[SwapLanes-1], ls[SwapLanes-1] = 2, 7
	sess.TrySwapBatch(&ks, &ls, &totals)
	sess.TryAssign(sess.ProcOf())
	if got, want := sess.Passes(), (PassCounts{Memo: 4, Batch: 1, Scalar: 4}); got != want {
		t.Fatalf("Passes = %+v, want %+v", got, want)
	}
}
