package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"mimdmap/internal/core"
	"mimdmap/internal/graph"
	"mimdmap/internal/schedule"
	"mimdmap/internal/service"
)

// wireRequest is the JSON body a mapserve client posts: graphs travel in
// the text format, as in POST /solve and POST /remap. The prev_* fields
// are set only on remap requests.
type wireRequest struct {
	Problem    string `json:"problem"`
	System     string `json:"system,omitempty"`
	Topology   string `json:"topology,omitempty"`
	Clustering string `json:"clustering"`
	Refiner    string `json:"refiner,omitempty"`
	Seed       int64  `json:"seed"`
	Starts     int    `json:"starts,omitempty"`
	// Refinements bounds the refinement trials (0 = the paper's ns).
	Refinements int  `json:"refinements,omitempty"`
	NoCache     bool `json:"no_cache,omitempty"`

	PrevProblem    string `json:"prev_problem,omitempty"`
	PrevSystem     string `json:"prev_system,omitempty"`
	PrevAssignment []int  `json:"prev_assignment,omitempty"`
}

// encodeWire renders a request (and, for a remap, its previous solution)
// in wire form. The machine travels as a topology spec when it has one
// and as text otherwise.
func encodeWire(req *service.Request, topo string, prev *service.Response) ([]byte, error) {
	w := wireRequest{
		Topology:    topo,
		Refiner:     req.Refiner,
		Seed:        req.Seed,
		Starts:      req.Options.Starts,
		Refinements: req.Options.MaxRefinements,
		NoCache:     req.NoCache,
	}
	var b strings.Builder
	if err := graph.WriteProblem(&b, req.Problem); err != nil {
		return nil, err
	}
	w.Problem = b.String()
	b.Reset()
	if err := graph.WriteClustering(&b, req.Clustering); err != nil {
		return nil, err
	}
	w.Clustering = b.String()
	if topo == "" {
		b.Reset()
		if err := graph.WriteSystem(&b, req.System); err != nil {
			return nil, err
		}
		w.System = b.String()
	}
	if prev != nil {
		b.Reset()
		if err := graph.WriteProblem(&b, prev.Problem); err != nil {
			return nil, err
		}
		w.PrevProblem = b.String()
		b.Reset()
		if err := graph.WriteSystem(&b, prev.System); err != nil {
			return nil, err
		}
		w.PrevSystem = b.String()
		w.PrevAssignment = prev.Result.Assignment.ProcOf
	}
	return json.Marshal(&w)
}

// decodeWire is the server-side decode step: a strict JSON read followed
// by graph.ReadProblem/ReadSystem/ReadClustering on every embedded graph.
// It returns the previous solution only for remap bodies.
func decodeWire(body []byte) (*service.Request, *service.Response, error) {
	var w wireRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, nil, fmt.Errorf("decode body: %w", err)
	}
	req := &service.Request{
		Topology: w.Topology,
		Refiner:  w.Refiner,
		Seed:     w.Seed,
		NoCache:  w.NoCache,
		Options:  core.Options{Starts: w.Starts, MaxRefinements: w.Refinements, Workers: maxProcs},
	}
	var err error
	if req.Problem, err = graph.ReadProblem(strings.NewReader(w.Problem)); err != nil {
		return nil, nil, fmt.Errorf("problem: %w", err)
	}
	if req.Clustering, err = graph.ReadClustering(strings.NewReader(w.Clustering)); err != nil {
		return nil, nil, fmt.Errorf("clustering: %w", err)
	}
	if w.System != "" {
		if req.System, err = graph.ReadSystem(strings.NewReader(w.System)); err != nil {
			return nil, nil, fmt.Errorf("system: %w", err)
		}
	}
	if w.PrevProblem == "" {
		return req, nil, nil
	}
	prev := &service.Response{Result: &core.Result{Assignment: schedule.FromPerm(w.PrevAssignment)}}
	if prev.Problem, err = graph.ReadProblem(strings.NewReader(w.PrevProblem)); err != nil {
		return nil, nil, fmt.Errorf("prev_problem: %w", err)
	}
	if prev.System, err = graph.ReadSystem(strings.NewReader(w.PrevSystem)); err != nil {
		return nil, nil, fmt.Errorf("prev_system: %w", err)
	}
	return req, prev, nil
}
