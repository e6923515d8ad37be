package search

import (
	"math/rand"

	"mimdmap/internal/schedule"
)

// swapQueue is the draw-ahead candidate queue of the random-swap refiners
// (Paper, Anneal). Each round tops the queue up to schedule.SwapLanes
// random pairs of movable clusters and resolves them in draw order against
// the incumbent each would have seen sequentially. A full round stops at
// its first commit, and its unresolved lanes are requeued ahead of the next
// round's fresh draws, so the refiner's random stream does not depend on
// how the lanes were priced.
//
// Pricing follows the previous full round. If it committed nothing, the
// incumbent is likely to survive this round as well, and the whole queue
// is priced in one TrySwapBatch pass. If it committed, another early commit
// is likely, and the lanes after it would have been priced against a stale
// incumbent and thrown away; so each lane is priced on demand with TrySwap
// (a priced-pair table lookup, or one scalar pass). Both paths give exact
// totals and consume no rng, so the choice never changes a result. Short
// rounds (the tail of the budget) always price lane by lane.
type swapQueue struct {
	pairs          [schedule.SwapLanes][2]int // drawn, unresolved candidates
	ks, ls, totals [schedule.SwapLanes]int    // TrySwapBatch operands
	n              int                        // queued candidates
	drawn          int                        // candidates charged to the budget

	full      bool // the current round holds SwapLanes candidates
	batched   bool // the current round was priced by one TrySwapBatch
	committed bool // a lane committed; fill reads it for the previous round
}

// fill tops the queue up with fresh pairs drawn from rng over free, never
// charging more than limit candidates in total, prices the round when the
// batch path applies, and returns the number of queued candidates.
//
//mapcheck:noalloc
func (q *swapQueue) fill(sess *schedule.SwapSession, rng *rand.Rand, free []int, limit int) int {
	for q.n < schedule.SwapLanes && q.drawn < limit {
		i, j := schedule.RandSwapPair(rng, len(free))
		q.pairs[q.n] = [2]int{free[i], free[j]}
		q.n++
		q.drawn++
	}
	q.full = q.n == schedule.SwapLanes
	q.batched = q.full && !q.committed
	q.committed = false
	if q.batched {
		for idx, p := range q.pairs {
			q.ks[idx], q.ls[idx] = p[0], p[1]
		}
		sess.TrySwapBatch(&q.ks, &q.ls, &q.totals)
	}
	return q.n
}

// price returns queued lane idx and its exact total against the session's
// current incumbent. Lanes are priced in order, and a full round ends at
// its first commit (see noteCommit).
//
//mapcheck:noalloc
func (q *swapQueue) price(sess *schedule.SwapSession, idx int) (k, l, total int) {
	k, l = q.pairs[idx][0], q.pairs[idx][1]
	if q.batched {
		return k, l, q.totals[idx]
	}
	return k, l, sess.TrySwap(k, l)
}

// noteCommit records that the lane just priced was committed to the
// session and reports whether the round ends there. A full round does,
// since its later lanes may have been priced against the old incumbent; a
// short round is priced lane by lane and goes on.
//
//mapcheck:noalloc
func (q *swapQueue) noteCommit() (endRound bool) {
	q.committed = true
	return q.full
}

// done ends the round after its first resolved lanes, requeueing the rest
// ahead of the next round's fresh draws.
//
//mapcheck:noalloc
func (q *swapQueue) done(resolved int) {
	copy(q.pairs[:], q.pairs[resolved:q.n])
	q.n -= resolved
}
