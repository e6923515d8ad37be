package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The text-format fuzzers pin the parser's core invariant: any input the
// parser accepts round-trips — parse → format → parse yields an equal,
// valid graph — and no input, however mangled, makes it panic or accept an
// invalid graph; for problems, the edge-list parse agrees with the dense
// reference parser (readProblemDense) on every error message, cell and
// structural query. The seed corpus is the golden fixtures the unit tests use
// (the paper's running example and generated DAGs), their text forms, and
// the documented edge cases of the format.

// fuzzSeedProblems returns text forms of known-good problem graphs.
func fuzzSeedProblems() []string {
	seeds := []string{
		"problem 2\ntask 0 3\ntask 1 4\nedge 0 1 2\n",
		"# comment\nproblem 1\n\ntask 0 2\n",
		"problem 3\ntask 2 1\nedge 0 2 7\nedge 1 2 1\n",
	}
	var buf bytes.Buffer
	if err := WriteProblem(&buf, diamond()); err == nil {
		seeds = append(seeds, buf.String())
	}
	buf.Reset()
	rng := rand.New(rand.NewSource(99))
	if err := WriteProblem(&buf, randomDAG(rng, 18)); err == nil {
		seeds = append(seeds, buf.String())
	}
	return seeds
}

func FuzzParseProblem(f *testing.F) {
	for _, seed := range fuzzSeedProblems() {
		f.Add(seed)
	}
	f.Add("problem x\n")
	f.Add("problem 2\nedge 0 1 1\nedge 1 0 1\n") // cycle: must be rejected
	// The last line for a cell wins and weight 0 deletes; errors report
	// the final cells in row-major order.
	f.Add("problem 3\nedge 0 1 5\nedge 0 1 0\nedge 1 2 -3\nedge 1 2 4\nedge 2 0 0\n")
	f.Add("problem 2\nedge 1 1 3\nedge 0 1 -1\n")
	f.Add("problem 1\nedge 0 0 2\nproblem 2\ntask 1\u00a05\nedge\u20030 1 2\n")
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ReadProblem(strings.NewReader(in))
		if !declaresLargeProblem(in) {
			ref, rerr := readProblemDense(strings.NewReader(in))
			if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
				t.Fatalf("ReadProblem error %v, dense reference %v\ninput: %q", err, rerr, in)
			}
			if err == nil {
				checkMatchesDense(t, p, ref, in)
			}
		}
		if err != nil {
			return // rejected inputs just must not panic
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("parser accepted an invalid problem: %v\ninput: %q", verr, in)
		}
		var buf bytes.Buffer
		if werr := WriteProblem(&buf, p); werr != nil {
			t.Fatalf("cannot format an accepted problem: %v", werr)
		}
		q, rerr := ReadProblem(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("formatted problem does not re-parse: %v\nformatted: %q", rerr, buf.String())
		}
		if !p.Equal(q) {
			t.Fatalf("round trip changed the problem:\ninput: %q\nformatted: %q", in, buf.String())
		}
	})
}

// fuzzDenseLimit caps the problem header the dense reference parser runs
// on: it allocates np² words, so a fuzzed "problem 16384" would cost
// 2 GiB per execution.
const fuzzDenseLimit = 512

// declaresLargeProblem reports whether any line of in is a problem header
// naming more than fuzzDenseLimit tasks.
func declaresLargeProblem(in string) bool {
	for _, line := range strings.Split(in, "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && f[0] == "problem" {
			if n, err := strconv.Atoi(f[1]); err == nil && n > fuzzDenseLimit {
				return true
			}
		}
	}
	return false
}

// checkMatchesDense asserts that the edge-list parse p agrees with the
// dense reference parse ref of the same input on every cell and every
// structural query.
func checkMatchesDense(t *testing.T, p, ref *Problem, in string) {
	t.Helper()
	if p.Edge != nil {
		t.Fatalf("ReadProblem returned an Edge buffer\ninput: %q", in)
	}
	if p.Fingerprint() != ref.Fingerprint() || !reflect.DeepEqual(p.EdgeList(), ref.EdgeList()) {
		t.Fatalf("fingerprint or edge list differs from the dense reference\ninput: %q", in)
	}
	order, _ := p.TopoOrder()
	if want, _ := ref.TopoOrder(); !reflect.DeepEqual(order, want) {
		t.Fatalf("TopoOrder = %v, dense reference %v\ninput: %q", order, want, in)
	}
	for i, row := range ref.Edge {
		for j, w := range row {
			if got := p.Weight(i, j); got != w {
				t.Fatalf("Weight(%d, %d) = %d, dense reference %d\ninput: %q", i, j, got, w, in)
			}
		}
	}
	checkSparseView(t, p, ref)
}

// fuzzSeedSystems returns text forms of known-good system graphs.
func fuzzSeedSystems() []string {
	seeds := []string{
		"system 2\nlink 0 1\n",
		"system 4 fig-5a\nlink 0 1\nlink 1 2\nlink 2 3\nlink 3 0\n",
		"# ring\nsystem 3\nlink 0 1\nlink 1 2\nlink 0 2\n",
	}
	sq := square()
	sq.Name = "fig-5a"
	var buf bytes.Buffer
	if err := WriteSystem(&buf, sq); err == nil {
		seeds = append(seeds, buf.String())
	}
	return seeds
}

func FuzzParseSystem(f *testing.F) {
	for _, seed := range fuzzSeedSystems() {
		f.Add(seed)
	}
	f.Add("system 3\nlink 0 1\n") // disconnected: must be rejected
	f.Add("system 2\nlink 0 9\n")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadSystem(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("parser accepted an invalid system: %v\ninput: %q", verr, in)
		}
		var buf bytes.Buffer
		if werr := WriteSystem(&buf, s); werr != nil {
			t.Fatalf("cannot format an accepted system: %v", werr)
		}
		u, rerr := ReadSystem(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("formatted system does not re-parse: %v\nformatted: %q", rerr, buf.String())
		}
		if !s.Equal(u) || s.Name != u.Name {
			t.Fatalf("round trip changed the system:\ninput: %q\nformatted: %q", in, buf.String())
		}
	})
}
