package schedule

import (
	"fmt"
)

// Analysis helpers: schedule validation against the execution model, and
// the summary statistics (utilisation, speedup, communication volume) used
// by reports and tests.

// CheckResult verifies that a Result is a faithful dataflow schedule of
// assignment a under evaluator e: end = start + size for every task, every
// task starts no earlier than each predecessor's delivery, at least one
// constraint is tight per task (no gratuitous idling — the paper's model
// starts tasks as soon as data arrives), and TotalTime is the maximum end.
func (e *Evaluator) CheckResult(a *Assignment, res *Result) error {
	n := e.Prob.NumTasks()
	if len(res.Start) != n || len(res.End) != n {
		return fmt.Errorf("schedule: result covers %d/%d tasks, want %d", len(res.Start), len(res.End), n)
	}
	maxEnd := 0
	for i := 0; i < n; i++ {
		if res.End[i] != res.Start[i]+e.Prob.Size[i] {
			return fmt.Errorf("schedule: task %d end %d ≠ start %d + size %d",
				i, res.End[i], res.Start[i], e.Prob.Size[i])
		}
		if res.End[i] > maxEnd {
			maxEnd = res.End[i]
		}
		ready := 0
		preds, ws := e.Prob.Preds(i), e.Prob.PredWeights(i)
		for k, j := range preds {
			t := res.End[j]
			if w := e.Clus.ClusteredWeight(j, i, ws[k]); w > 0 {
				t += w * e.Dist.At(a.ProcOf[e.Clus.Of[j]], a.ProcOf[e.Clus.Of[i]])
			}
			if res.Start[i] < t {
				return fmt.Errorf("schedule: task %d starts at %d before predecessor %d delivers at %d",
					i, res.Start[i], j, t)
			}
			if t > ready {
				ready = t
			}
		}
		if res.Start[i] != ready && len(preds) > 0 {
			return fmt.Errorf("schedule: task %d idles from %d to %d (dataflow model starts immediately)",
				ready, res.Start[i], i)
		}
		if len(preds) == 0 && res.Start[i] != 0 {
			return fmt.Errorf("schedule: source task %d starts at %d, want 0", i, res.Start[i])
		}
	}
	if res.TotalTime != maxEnd {
		return fmt.Errorf("schedule: total time %d ≠ max end %d", res.TotalTime, maxEnd)
	}
	return nil
}

// Utilization returns, per processor, the fraction of the makespan spent
// executing tasks (0 when the makespan is 0). In the dataflow model tasks
// on one processor may overlap; overlapping intervals are merged so a value
// never exceeds 1.
func (e *Evaluator) Utilization(a *Assignment, res *Result) []float64 {
	nProcs := e.Dist.NumNodes()
	util := make([]float64, nProcs)
	if res.TotalTime == 0 {
		return util
	}
	type interval struct{ s, t int }
	perProc := make([][]interval, nProcs)
	for i := 0; i < e.Prob.NumTasks(); i++ {
		p := a.ProcOf[e.Clus.Of[i]]
		perProc[p] = append(perProc[p], interval{res.Start[i], res.End[i]})
	}
	for p, ivs := range perProc {
		// Insertion sort by start; merge overlaps.
		for i := 1; i < len(ivs); i++ {
			for j := i; j > 0 && ivs[j].s < ivs[j-1].s; j-- {
				ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
			}
		}
		busy, curS, curT := 0, -1, -1
		for _, iv := range ivs {
			if iv.s > curT {
				busy += curT - curS
				curS, curT = iv.s, iv.t
				continue
			}
			if iv.t > curT {
				curT = iv.t
			}
		}
		if curT > curS {
			busy += curT - curS
		}
		if curS == -1 {
			busy = 0
		}
		util[p] = float64(busy) / float64(res.TotalTime)
	}
	return util
}

// Speedup returns serial time (total work) divided by the makespan: the
// classic parallel speedup of the mapped program.
func (e *Evaluator) Speedup(res *Result) float64 {
	if res.TotalTime == 0 {
		return 0
	}
	return float64(e.Prob.TotalWork()) / float64(res.TotalTime)
}

// CommStats summarises the communication an assignment induces.
type CommStats struct {
	// Edges is the number of inter-cluster (communicating) problem edges.
	Edges int
	// Adjacent counts edges carried by a single machine link.
	Adjacent int
	// Volume is Σ weight × distance over all communicating edges.
	Volume int
	// IdealVolume is Σ weight (the closure volume, all distances 1).
	IdealVolume int
	// MaxDistance is the longest route any message takes.
	MaxDistance int
}

// Dilation returns the mean distance factor: Volume / IdealVolume
// (1.0 means every message crosses exactly one link). Returns 1 when the
// program has no communication.
func (s CommStats) Dilation() float64 {
	if s.IdealVolume == 0 {
		return 1
	}
	return float64(s.Volume) / float64(s.IdealVolume)
}

// AnalyzeComm computes the communication statistics of assignment a.
func (e *Evaluator) AnalyzeComm(a *Assignment) CommStats {
	var st CommStats
	n := e.Prob.NumTasks()
	for j := 0; j < n; j++ {
		ws := e.Prob.SuccWeights(j)
		for k, i := range e.Prob.Succs(j) {
			w := e.Clus.ClusteredWeight(j, i, ws[k])
			if w == 0 {
				continue
			}
			d := e.Dist.At(a.ProcOf[e.Clus.Of[j]], a.ProcOf[e.Clus.Of[i]])
			st.Edges++
			st.Volume += w * d
			st.IdealVolume += w
			if d == 1 {
				st.Adjacent++
			}
			if d > st.MaxDistance {
				st.MaxDistance = d
			}
		}
	}
	return st
}
