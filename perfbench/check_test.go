package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"mimdmap/internal/core"
	"mimdmap/internal/gen"
	"mimdmap/internal/schedule"
	"mimdmap/internal/service"
	"mimdmap/internal/topology"
)

// solved returns a small solved instance and its check model.
func solved(t *testing.T) (*service.Request, *service.Response, *checkInst) {
	t.Helper()
	sys := topology.Mesh(4, 4)
	p, c, err := gen.TableInstance(sys.NumNodes(), 7)
	if err != nil {
		t.Fatal(err)
	}
	req := &service.Request{Problem: p, System: sys, Clustering: c, Seed: 3}
	resp, err := service.NewSolver(1).Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := newCheckInst(p, c, sys)
	if err != nil {
		t.Fatal(err)
	}
	return req, resp, ci
}

// clone copies everything the tests corrupt.
func clone(r *service.Response) *service.Response {
	out := *r
	res := *r.Result
	res.Assignment = r.Result.Assignment.Clone()
	out.Result = &res
	sched := *r.Schedule
	out.Schedule = &sched
	return &out
}

func TestCheckAcceptsSolverOutput(t *testing.T) {
	_, resp, ci := solved(t)
	var ck checker
	if err := ck.check(ci, resp, 0); err != nil {
		t.Fatalf("clean response rejected: %v", err)
	}
}

func TestCheckCatchesCorruptedResponses(t *testing.T) {
	_, resp, ci := solved(t)
	cases := map[string]func(r *service.Response){
		"duplicate processor": func(r *service.Response) { r.Result.Assignment.ProcOf[0] = r.Result.Assignment.ProcOf[1] },
		"short assignment":    func(r *service.Response) { r.Result.Assignment.ProcOf = r.Result.Assignment.ProcOf[1:] },
		"total time":          func(r *service.Response) { r.Result.TotalTime++ },
		"lower bound":         func(r *service.Response) { r.Result.LowerBound = r.Result.TotalTime + 1 },
		"schedule total":      func(r *service.Response) { r.Schedule.TotalTime++ },
		"moved clusters": func(r *service.Response) {
			// Swap the first pair of clusters whose exchange changes the
			// makespan, leaving TotalTime stale.
			a := r.Result.Assignment
			for k := 1; k < a.K(); k++ {
				a.Swap(0, k)
				if ci.makespan(a.ProcOf, make([]int, len(ci.size))) != r.Result.TotalTime {
					return
				}
				a.Swap(0, k)
			}
			t.Fatal("no swap changes the makespan")
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			r := clone(resp)
			corrupt(r)
			var ck checker
			if err := ck.check(ci, r, 0); err == nil {
				t.Fatal("corrupted response passed the check")
			}
		})
	}
}

func TestCheckCatchesRemapWorseThanIncumbent(t *testing.T) {
	_, resp, ci := solved(t)
	r := clone(resp)
	r.Diagnostics.WarmStart = true
	var ck checker
	if err := ck.check(ci, r, r.Result.TotalTime); err != nil {
		t.Fatalf("remap equal to its incumbent rejected: %v", err)
	}
	if err := ck.check(ci, r, r.Result.TotalTime-1); err == nil {
		t.Fatal("remap worse than its incumbent passed the check")
	}
}

func TestDigestCoversDeterministicFields(t *testing.T) {
	_, resp, _ := solved(t)
	for name, corrupt := range map[string]func(r *service.Response){
		"assignment": func(r *service.Response) { r.Result.Assignment.Swap(0, 1) },
		"total time": func(r *service.Response) { r.Result.TotalTime++ },
		"warm start": func(r *service.Response) { r.Diagnostics.WarmStart = true },
	} {
		r := clone(resp)
		corrupt(r)
		if digestOf(resp) == digestOf(r) {
			t.Errorf("digest ignores the %s", name)
		}
	}
	r := clone(resp)
	r.Elapsed++
	if digestOf(resp) != digestOf(r) {
		t.Error("digest depends on the wall-clock Elapsed")
	}
}

func TestWireRoundTrip(t *testing.T) {
	req, resp, _ := solved(t)
	req.Refiner = "anneal"
	req.Options = core.Options{Starts: 2, MaxRefinements: 99}
	body, err := encodeWire(req, "mesh-4x4", resp)
	if err != nil {
		t.Fatal(err)
	}
	got, prev, err := decodeWire(body)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case !got.Problem.Equal(req.Problem):
		t.Error("problem changed on the wire")
	case !equalInts(got.Clustering.Of, req.Clustering.Of):
		t.Error("clustering changed on the wire")
	case got.Topology != "mesh-4x4" || got.Refiner != "anneal" || got.Seed != req.Seed:
		t.Errorf("request fields changed on the wire: %+v", got)
	case got.Options.Starts != 2 || got.Options.MaxRefinements != 99:
		t.Errorf("options changed on the wire: %+v", got.Options)
	case prev == nil || !prev.Result.Assignment.Equal(resp.Result.Assignment) || !prev.System.Equal(resp.System):
		t.Error("previous solution changed on the wire")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDoFailsOnDigestMismatch(t *testing.T) {
	w, err := buildWorkload("refine-long", 1)
	if err != nil {
		t.Fatal(err)
	}
	var ck checker
	if _, err := w.do(context.Background(), 0, 0, nil, &ck); err != nil {
		t.Fatalf("repeat of a warm-up request failed: %v", err)
	}
	w.refs[0] = digest{}
	if _, err := w.do(context.Background(), 0, 0, nil, &ck); !errors.Is(err, errDigest) {
		t.Fatalf("want a digest mismatch, got %v", err)
	}
}

func TestReplayReproducesSolve(t *testing.T) {
	req, resp, _ := solved(t)
	var ps probeStats
	if err := replay(context.Background(), req, resp, nil, &ps); err != nil {
		t.Fatalf("decomposition disagrees with Solve: %v", err)
	}
	wrong := clone(resp)
	wrong.Result.Assignment = schedule.FromPerm(append([]int(nil), resp.Result.Assignment.ProcOf...))
	wrong.Result.Assignment.Swap(0, 1)
	if err := replay(context.Background(), req, wrong, nil, &ps); err == nil {
		t.Fatal("decomposition accepted a different assignment")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{30, 50}, {40, 75}, {100, 90}, {1000, 99}, {10000, 99.9}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		pct, _, beyond := tail(xs)
		if pct != tc.want || (beyond < 10 && pct != 50) {
			t.Errorf("n=%d: p%g with %d beyond, want p%g", tc.n, pct, beyond, tc.want)
		}
	}
	for _, tc := range []struct {
		n, windows int
		want       float64
	}{{60, 1, 75}, {90, 2, 75}, {150, 3, 75}, {300, 3, 90}, {2500, 2, 99}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i % 100)
		}
		pct, _, _, windows := windowedTail(xs)
		if pct != tc.want || windows != tc.windows {
			t.Errorf("n=%d: p%g over %d windows, want p%g over %d", tc.n, pct, windows, tc.want, tc.windows)
		}
	}
}

func TestServeMixLoopChecksEveryResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the serve-mix fleet")
	}
	w, err := buildWorkload("serve-mix", 2)
	if err != nil {
		t.Fatal(err)
	}
	r := w.loop(200*time.Millisecond, true)
	if r.err != nil || r.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.err)
	}
	if r.attempted < w.minOps || r.requests != r.attempted {
		t.Fatalf("%d operations, %d requests; want at least %d of each", r.attempted, r.requests, w.minOps)
	}
	if spans := durations(r.logs); len(spans["graph.decode"]) != r.attempted {
		t.Fatalf("%d decode spans for %d operations", len(spans["graph.decode"]), r.attempted)
	}
}
