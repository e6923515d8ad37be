package schedule

import (
	"container/heap"

	"mimdmap/internal/paths"
)

// Link-contention evaluation — a second extension beyond the paper
// (DESIGN.md §5). The paper's model charges weight × distance for every
// message independently; real 1991 machines serialized messages sharing a
// link. EvaluateLinkContended simulates store-and-forward delivery over the
// machine's canonical shortest-path routes with first-come-first-served
// links: a message occupies each link of its route for its full weight, and
// both directions of a link share one resource. Tasks still follow the
// paper's dataflow rule (no processor contention), so the difference to
// Evaluate isolates exactly the network's queueing effect.

// linkMsg is one inter-processor message of the simulated program.
type linkMsg struct {
	id       int
	src, dst int   // tasks
	w        int   // transmission time per link
	links    []int // canonical link IDs along the route
}

// linkEvent is a message ready to enter the next link of its route.
type linkEvent struct {
	time int // earliest moment the message can enter the link
	id   int // message ID, for deterministic FCFS tie-breaking
	hop  int // index into the message's link list
}

type linkEventQueue []linkEvent

func (q linkEventQueue) Len() int { return len(q) }
func (q linkEventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	if q[i].id != q[j].id {
		return q[i].id < q[j].id
	}
	return q[i].hop < q[j].hop
}
func (q linkEventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *linkEventQueue) Push(x any)   { *q = append(*q, x.(linkEvent)) }
func (q *linkEventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	*q = old[:n-1]
	return ev
}

// EvaluateLinkContended computes start/end times and the total time of
// assignment a under FCFS link contention. routes must describe the same
// machine as the evaluator's distance table.
func (e *Evaluator) EvaluateLinkContended(a *Assignment, routes *paths.Routes) *Result {
	n := e.Prob.NumTasks()
	res := &Result{
		Start: make([]int, n),
		End:   make([]int, n),
	}

	// Classify each precedence edge: local (same processor — delivery at
	// the predecessor's end) or a network message.
	var msgs []*linkMsg
	msgsOf := make([][]*linkMsg, n)
	remaining := make([]int, n) // undelivered predecessor contributions
	ready := make([]int, n)     // max contribution seen so far
	started := make([]bool, n)
	for j := 0; j < n; j++ {
		ws := e.Prob.SuccWeights(j)
		for k, i := range e.Prob.Succs(j) {
			remaining[i]++
			w := e.Clus.ClusteredWeight(j, i, ws[k])
			pj := a.ProcOf[e.Clus.Of[j]]
			pi := a.ProcOf[e.Clus.Of[i]]
			if w == 0 || pj == pi {
				continue // local: resolved when j finishes
			}
			m := &linkMsg{id: len(msgs), src: j, dst: i, w: w, links: routes.Links(pj, pi)}
			msgs = append(msgs, m)
			msgsOf[j] = append(msgsOf[j], m)
		}
	}

	linkFree := map[int]int{}
	var queue linkEventQueue

	// contribute records predecessor j's delivery to task i at time t and
	// starts i once everything has arrived. Started tasks finish
	// immediately in model time: they emit their messages and resolve
	// local successors, using an explicit stack to survive long chains.
	var stack []int
	contribute := func(i, t int) {
		if t > ready[i] {
			ready[i] = t
		}
		remaining[i]--
		if remaining[i] == 0 {
			stack = append(stack, i)
		}
	}
	startTask := func(i int) {
		if started[i] {
			return
		}
		started[i] = true
		res.Start[i] = ready[i]
		res.End[i] = ready[i] + e.Prob.Size[i]
		if res.End[i] > res.TotalTime {
			res.TotalTime = res.End[i]
		}
		// Emit network messages.
		for _, m := range msgsOf[i] {
			heap.Push(&queue, linkEvent{time: res.End[i], id: m.id, hop: 0})
		}
		// Resolve local successors.
		ws := e.Prob.SuccWeights(i)
		for k, s := range e.Prob.Succs(i) {
			w := e.Clus.ClusteredWeight(i, s, ws[k])
			if w == 0 || a.ProcOf[e.Clus.Of[i]] == a.ProcOf[e.Clus.Of[s]] {
				contribute(s, res.End[i])
			}
		}
	}
	drainStack := func() {
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			startTask(i)
		}
	}

	// Seed: tasks without predecessors start at time 0.
	for i := 0; i < n; i++ {
		if remaining[i] == 0 {
			stack = append(stack, i)
		}
	}
	drainStack()

	// Event loop: advance messages hop by hop, FCFS per link.
	for queue.Len() > 0 {
		ev := heap.Pop(&queue).(linkEvent)
		m := msgs[ev.id]
		link := m.links[ev.hop]
		start := ev.time
		if f, ok := linkFree[link]; ok && f > start {
			start = f
		}
		linkFree[link] = start + m.w
		arrive := start + m.w
		if ev.hop+1 < len(m.links) {
			heap.Push(&queue, linkEvent{time: arrive, id: m.id, hop: ev.hop + 1})
			continue
		}
		contribute(m.dst, arrive)
		drainStack()
	}

	for i := 0; i < n; i++ {
		if res.End[i] == res.TotalTime {
			res.LatestTasks = append(res.LatestTasks, i)
		}
	}
	return res
}

// LinkContendedTotalTime returns just the makespan under link contention.
func (e *Evaluator) LinkContendedTotalTime(a *Assignment, routes *paths.Routes) int {
	return e.EvaluateLinkContended(a, routes).TotalTime
}
