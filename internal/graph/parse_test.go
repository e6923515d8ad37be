package graph_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"mimdmap/internal/gen"
	"mimdmap/internal/graph"
)

// The parser's cost model: ReadProblem builds the sparse view straight
// from the edge lines, so memory is O(np + lines) at any header size, and
// the shared line scanner allocates nothing per line. The tests below pin
// both; the benchmarks measure the decode path at the Table 1–3 density.

// problemBody renders a gen.Random problem of np tasks at the Table 1–3
// density (three edges per task expected) in the text format.
func problemBody(tb testing.TB, np int) []byte {
	tb.Helper()
	p, err := gen.Random(gen.RandomConfig{
		Tasks: np, EdgeProb: 3.0 / float64(np),
		MinTaskSize: 1, MaxTaskSize: 20, MinEdgeWeight: 1, MaxEdgeWeight: 5,
		Connected: true,
	}, rand.New(rand.NewSource(int64(np))))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteProblem(&buf, p); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// clusteringBody renders a clustering of np tasks round-robin over 16
// clusters in the text format.
func clusteringBody(tb testing.TB, np int) []byte {
	tb.Helper()
	c := graph.NewClustering(np, 16)
	for t := range c.Of {
		c.Of[t] = t % c.K
	}
	var buf bytes.Buffer
	if err := graph.WriteClustering(&buf, c); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadProblemHugeHeaderBoundedMemory: a 14-byte body declaring the
// largest problem the format allows costs O(np) words, not the np² words
// (2 GiB) of a dense edge matrix.
func TestReadProblemHugeHeaderBoundedMemory(t *testing.T) {
	body := fmt.Sprintf("problem %d\n", graph.MaxTextNodes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := graph.ReadProblem(strings.NewReader(body))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTasks() != graph.MaxTextNodes {
		t.Fatalf("NumTasks = %d, want %d", p.NumTasks(), graph.MaxTextNodes)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("parsing the %d-byte body %q allocated %d bytes, want under 1 MiB", len(body), body, got)
	}
}

// maxExtraAllocs bounds how many more allocations a body with 8× the lines
// may cost: only the edge-line slice grows with the input, by doubling.
const maxExtraAllocs = 8

// checkAllocsFlat asserts that read costs no allocation per line: the
// large body allocates at most maxExtraAllocs more times than the small.
func checkAllocsFlat(t *testing.T, read func([]byte) error, small, large []byte) {
	t.Helper()
	count := func(body []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := read(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := count(small), count(large)
	t.Logf("allocs: %d lines %.0f, %d lines %.0f", bytes.Count(small, []byte("\n")), a, bytes.Count(large, []byte("\n")), b)
	if b > a+maxExtraAllocs {
		t.Fatalf("allocations grow with the input: %.0f for the small body, %.0f for the large", a, b)
	}
}

func TestReadProblemAllocsPerLine(t *testing.T) {
	checkAllocsFlat(t, func(body []byte) error {
		_, err := graph.ReadProblem(bytes.NewReader(body))
		return err
	}, problemBody(t, 256), problemBody(t, 2048))
}

func TestReadClusteringAllocsPerLine(t *testing.T) {
	checkAllocsFlat(t, func(body []byte) error {
		_, err := graph.ReadClustering(bytes.NewReader(body))
		return err
	}, clusteringBody(t, 256), clusteringBody(t, 2048))
}

func benchReadProblem(b *testing.B, np int) {
	body := problemBody(b, np)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ReadProblem(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadProblem256(b *testing.B)  { benchReadProblem(b, 256) }
func BenchmarkReadProblem2048(b *testing.B) { benchReadProblem(b, 2048) }
