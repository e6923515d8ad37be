package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// The text-format fuzzers pin the parser's core invariant: any input the
// parser accepts round-trips — parse → format → parse yields an equal,
// valid graph — and no input, however mangled, makes it panic or accept an
// invalid graph; for problems, the sparse view the parser froze matches the
// parsed matrix. The seed corpus is the golden fixtures the unit tests use
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
	f.Fuzz(func(t *testing.T, in string) {
		p, err := ReadProblem(strings.NewReader(in))
		if err != nil {
			return // rejected inputs just must not panic
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("parser accepted an invalid problem: %v\ninput: %q", verr, in)
		}
		// The view frozen by the parser's Validate must agree with the
		// matrix it was built from: preds, succs, degrees and order.
		checkSparseView(t, p)
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
