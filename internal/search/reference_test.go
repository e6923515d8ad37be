package search

import (
	"context"
	"math"
	"math/rand"

	"mimdmap/internal/schedule"
)

// The always-batch random-swap loops that Paper and Anneal ran before they
// priced lazily: every full queue is priced in one TrySwapBatch pass, and
// a commit throws away the lanes behind it. They are kept verbatim as
// differential oracles: the lazy refiners must reproduce their traces,
// assignments and random streams exactly.

// batchPaper is the always-batch reference of Paper.
type batchPaper struct{}

func (batchPaper) Name() string { return "paper" }

func (batchPaper) Refine(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
	tr := Trace{Final: sess.TotalTime()}
	free := b.free(sess)
	if len(free) < 2 || b.Trials <= 0 {
		return tr
	}
	const lanes = schedule.SwapLanes
	var ks, ls, totals [lanes]int
	var queue [lanes][2]int // drawn but unresolved candidate swaps
	qlen, drawn := 0, 0
	for tr.Trials < b.Trials {
		if ctx.Err() != nil {
			break
		}
		for qlen < lanes && drawn < b.Trials {
			i, j := schedule.RandSwapPair(rng, len(free))
			queue[qlen] = [2]int{free[i], free[j]}
			qlen++
			drawn++
		}
		batched := qlen == lanes
		if batched {
			for idx := 0; idx < lanes; idx++ {
				ks[idx], ls[idx] = queue[idx][0], queue[idx][1]
			}
			sess.TrySwapBatch(&ks, &ls, &totals)
		}
		resolved := 0
		accepted := false
		for idx := 0; idx < qlen; idx++ {
			k, l := queue[idx][0], queue[idx][1]
			var total int
			if batched {
				total = totals[idx]
			} else {
				total = sess.TrySwap(k, l)
			}
			tr.Trials++
			resolved++
			if b.RecordTrials {
				tr.Totals = append(tr.Totals, total)
			}
			if !b.DisableTermination && total == b.LowerBound {
				tr.Improved++
				tr.Final = total
				tr.AtBound = true
				sess.CommitSwap(k, l, total)
				return tr
			}
			if total < tr.Final {
				tr.Improved++
				tr.Final = total
				sess.CommitSwap(k, l, total)
				if batched {
					// The remaining lanes were priced against the old
					// incumbent; requeue them for exact re-evaluation.
					accepted = true
					break
				}
			}
		}
		if accepted {
			copy(queue[:], queue[resolved:qlen])
		}
		qlen -= resolved
	}
	return tr
}

// batchAnneal is the always-batch reference of Anneal, with the same
// configuration fields.
type batchAnneal Anneal

func (*batchAnneal) Name() string { return "anneal" }

func (an *batchAnneal) Refine(ctx context.Context, sess *schedule.SwapSession, b Budget, rng *rand.Rand) Trace {
	cooling := an.Cooling
	if cooling == 0 {
		cooling = 0.995
	}
	minTemp := an.MinTemp
	if minTemp == 0 {
		minTemp = 1e-3
	}
	tr := Trace{Final: sess.TotalTime()}
	free := b.free(sess)
	if len(free) < 2 || b.Trials <= 0 {
		return tr
	}
	if ctx.Err() != nil {
		return tr
	}
	cur := sess.TotalTime()
	bestTotal := cur
	bestProc := make([]int, sess.K())
	copy(bestProc, sess.ProcOf())

	temp := an.InitialTemp
	if temp == 0 {
		// Calibrate from probe swaps of the incumbent: estimate the typical
		// uphill cost delta and start where such a move is accepted with
		// probability ~0.8. Probes are full trial evaluations, so they are
		// charged against the budget like any other trial — the equal-budget
		// comparison contract counts evaluation work, not acceptance tests —
		// but they are capped at a quarter of the budget so small-budget
		// runs still spend most of their trials annealing, and the best
		// improving probe is committed rather than thrown away.
		probes := 32
		if quarter := b.Trials / 4; probes > quarter {
			probes = quarter
		}
		if probes < 1 {
			probes = 1
		}
		sum, count := 0.0, 0
		probeK, probeL, probeT := -1, -1, cur
		for t := 0; t < probes; t++ {
			i, j := schedule.RandSwapPair(rng, len(free))
			total := sess.TrySwap(free[i], free[j])
			tr.Trials++
			if b.RecordTrials {
				tr.Totals = append(tr.Totals, total)
			}
			if !b.DisableTermination && total == b.LowerBound {
				tr.Improved++
				tr.Final = total
				tr.AtBound = true
				sess.CommitSwap(free[i], free[j], total)
				return tr
			}
			if total < probeT {
				probeK, probeL, probeT = free[i], free[j], total
			}
			if d := total - cur; d > 0 {
				sum += float64(d)
				count++
			}
		}
		if probeK >= 0 {
			// A probe found a downhill move; take it, as the annealing loop
			// itself always would at any temperature.
			tr.Improved++
			cur = probeT
			sess.CommitSwap(probeK, probeL, probeT)
			bestTotal = cur
			copy(bestProc, sess.ProcOf())
		}
		if count == 0 {
			temp = 1.0
		} else {
			temp = -(sum / float64(count)) / math.Log(0.8)
		}
	}

	const lanes = schedule.SwapLanes
	var ks, ls, totals [lanes]int
	var queue [lanes][2]int
	// drawn counts every candidate charged to the budget — calibration
	// probes included — so drawing stops exactly at b.Trials even when the
	// remaining budget is not a whole batch.
	qlen, drawn := 0, tr.Trials
	for tr.Trials < b.Trials && temp > minTemp {
		if ctx.Err() != nil {
			break
		}
		for qlen < lanes && drawn < b.Trials {
			i, j := schedule.RandSwapPair(rng, len(free))
			queue[qlen] = [2]int{free[i], free[j]}
			qlen++
			drawn++
		}
		batched := qlen == lanes
		if batched {
			for idx := 0; idx < lanes; idx++ {
				ks[idx], ls[idx] = queue[idx][0], queue[idx][1]
			}
			sess.TrySwapBatch(&ks, &ls, &totals)
		}
		resolved := 0
		accepted := false
		for idx := 0; idx < qlen && temp > minTemp; idx++ {
			k, l := queue[idx][0], queue[idx][1]
			var total int
			if batched {
				total = totals[idx]
			} else {
				total = sess.TrySwap(k, l)
			}
			tr.Trials++
			resolved++
			if b.RecordTrials {
				tr.Totals = append(tr.Totals, total)
			}
			if !b.DisableTermination && total == b.LowerBound {
				tr.Improved++
				tr.Final = total
				tr.AtBound = true
				sess.CommitSwap(k, l, total)
				return tr
			}
			delta := total - cur
			take := delta <= 0 || rng.Float64() < math.Exp(-float64(delta)/temp)
			temp *= cooling
			if take {
				if delta < 0 {
					tr.Improved++ // the trial lowered the incumbent total
				}
				cur = total
				sess.CommitSwap(k, l, total)
				if cur < bestTotal {
					bestTotal = cur
					copy(bestProc, sess.ProcOf())
				}
				if batched {
					// The remaining lanes were priced against the old
					// incumbent; requeue them for exact re-evaluation.
					accepted = true
					break
				}
			}
		}
		if accepted {
			copy(queue[:], queue[resolved:qlen])
		}
		qlen -= resolved
	}
	if bestTotal < sess.TotalTime() {
		sess.CommitAssign(bestProc, bestTotal)
	}
	tr.Final = bestTotal
	return tr
}
