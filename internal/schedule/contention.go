package schedule

// Contention-aware evaluation — an extension beyond the paper, used only by
// ablation experiment E10 (see DESIGN.md §5).
//
// The paper's model lets every task on a processor run as soon as its data
// arrives, even if another task on the same processor is still executing.
// EvaluateContended instead serializes tasks sharing a processor with a
// greedy non-delay list schedule: among the tasks whose predecessors have
// all finished, the one with the earliest data-ready time starts next on its
// processor (ties broken by task ID). Comparing both evaluators quantifies
// how much of the mapping-quality signal survives a more realistic machine.

// EvaluateContended computes start/end times and total time of assignment a
// under processor-serialized execution. It uses the same communication model
// as Evaluate (weight × shortest-path distance, zero within a cluster).
func (e *Evaluator) EvaluateContended(a *Assignment) *Result {
	n := e.Prob.NumTasks()
	res := &Result{
		Start: make([]int, n),
		End:   make([]int, n),
	}
	nProcs := e.Dist.NumNodes()
	procFree := make([]int, nProcs)
	unscheduledPreds := make([]int, n)
	ready := make([]int, n) // data-ready time, valid once unscheduledPreds==0
	scheduled := make([]bool, n)
	for i := 0; i < n; i++ {
		unscheduledPreds[i] = e.Prob.InDegree(i)
	}

	for done := 0; done < n; done++ {
		// Pick the schedulable task with the earliest feasible start:
		// max(data-ready, processor-free), tie-broken by ready time then ID.
		best, bestStart, bestReady := -1, 0, 0
		for i := 0; i < n; i++ {
			if scheduled[i] || unscheduledPreds[i] > 0 {
				continue
			}
			proc := a.ProcOf[e.Clus.Of[i]]
			start := ready[i]
			if procFree[proc] > start {
				start = procFree[proc]
			}
			if best == -1 || start < bestStart ||
				(start == bestStart && ready[i] < bestReady) {
				best, bestStart, bestReady = i, start, ready[i]
			}
		}
		i := best
		proc := a.ProcOf[e.Clus.Of[i]]
		scheduled[i] = true
		res.Start[i] = bestStart
		res.End[i] = bestStart + e.Prob.Size[i]
		procFree[proc] = res.End[i]
		if res.End[i] > res.TotalTime {
			res.TotalTime = res.End[i]
		}
		// Release successors.
		ws := e.Prob.SuccWeights(i)
		for k, j := range e.Prob.Succs(i) {
			arrive := res.End[i]
			if w := e.Clus.ClusteredWeight(i, j, ws[k]); w > 0 {
				arrive += w * e.Dist.At(proc, a.ProcOf[e.Clus.Of[j]])
			}
			if arrive > ready[j] {
				ready[j] = arrive
			}
			unscheduledPreds[j]--
		}
	}
	for i := 0; i < n; i++ {
		if res.End[i] == res.TotalTime {
			res.LatestTasks = append(res.LatestTasks, i)
		}
	}
	return res
}

// ContendedTotalTime returns just the makespan of the contention-aware
// schedule.
func (e *Evaluator) ContendedTotalTime(a *Assignment) int {
	return e.EvaluateContended(a).TotalTime
}
