package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync/atomic"
)

// Content-addressed canonicalization. A Fingerprint is a stable 256-bit
// digest of a graph's structure — the identity production mapping services
// key their work off: two requests naming byte-for-byte identical inputs
// hash to the same fingerprint no matter which process, machine or point in
// time computed it, so fingerprints can drive caches, deduplicate in-flight
// work, and travel between processes. This replaces pointer identity (which
// dies with the process and breaks the moment a caller rebuilds an equal
// graph) as the cache key of the service layer.
//
// Stability contract: the encoding behind each Fingerprint method is
// versioned by its domain tag ("mimdmap/problem/v1", …). Changing what a
// method hashes requires bumping its tag, so stale persisted fingerprints
// can never alias fresh ones.
//
// Fingerprints memoize: the first call hashes the structure, repeats return
// the stored digest (the serving hot path fingerprints the same graphs on
// every request — rehashing an np×np edge matrix per cache hit dominated
// the warm path before memoization).
//
// Freeze-point contract. A Problem carries two memos: its fingerprint and
// its sparse view (successor/predecessor lists, topological order and
// validation verdict; see sparse.go). The first structural query —
// Validate, TopoOrder, Preds/Succs/degrees, NumEdges, EdgeList,
// Fingerprint, or any analysis (ideal.Derive, critical.Analyze,
// schedule.NewEvaluator, core.New) handed the problem — is the freeze
// point. After it:
//
//   - SetEdge is the only supported mutation: it writes the cell and drops
//     both memos, so the next query rebuilds them (one O(n²) pass).
//     Interleaving SetEdge with structural queries therefore costs a full
//     rebuild per query; builders track what they need themselves.
//   - Writing Edge or Size directly is not seen by the memos and is a
//     contract violation. Builders, parsers and generators write cells
//     directly only on a problem nothing has queried yet.
//   - System and Clustering have no mutation hooks: they must not change
//     at all after their first Fingerprint.
//
// This was already the de facto contract — the service layer shares graph
// pointers between cached responses and their callers — and construction
// happens strictly before any fingerprint or analysis use.

// Fingerprint is a 256-bit content address of a graph structure.
type Fingerprint [32]byte

// fpMemo caches a computed fingerprint on its graph. Concurrent first
// calls may both compute (deterministically the same digest) and both
// store; every later call loads the pointer once. The embedded atomic
// makes the owning graph types no-copy, which is deliberate: a by-value
// graph copy would alias the underlying slices, exactly the sharing the
// freeze-point contract above exists to protect.
type fpMemo struct {
	p atomic.Pointer[Fingerprint]
}

// memo returns the cached fingerprint, computing and storing it via f on
// first use.
func (m *fpMemo) memo(f func() Fingerprint) Fingerprint {
	if fp := m.p.Load(); fp != nil {
		return *fp
	}
	fp := f()
	m.p.Store(&fp)
	return fp
}

// reset drops the cached fingerprint.
func (m *fpMemo) reset() { m.p.Store(nil) }

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// IsZero reports whether the fingerprint is the zero value (never produced
// by hashing, so usable as a "not computed" sentinel).
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// Hasher folds structured data into a Fingerprint. Every write is
// self-delimiting (varints, length-prefixed strings), so a fixed sequence of
// writes encodes unambiguously: distinct field sequences can never collide
// by concatenation. The zero value is not usable; construct with NewHasher,
// whose domain tag separates unrelated uses of the same field layout.
type Hasher struct {
	h   hash.Hash
	buf [binary.MaxVarintLen64]byte
}

// NewHasher returns a Hasher seeded with the given domain tag.
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.Str(domain)
	return h
}

// Int64 writes one signed integer.
func (h *Hasher) Int64(v int64) {
	n := binary.PutVarint(h.buf[:], v)
	h.h.Write(h.buf[:n])
}

// Int writes one int.
func (h *Hasher) Int(v int) { h.Int64(int64(v)) }

// Bool writes one boolean.
func (h *Hasher) Bool(b bool) {
	if b {
		h.Int64(1)
	} else {
		h.Int64(0)
	}
}

// Str writes one length-prefixed string.
func (h *Hasher) Str(s string) {
	h.Int(len(s))
	h.h.Write([]byte(s))
}

// Ints writes one length-prefixed int slice.
func (h *Hasher) Ints(xs []int) {
	h.Int(len(xs))
	for _, x := range xs {
		h.Int(x)
	}
}

// Matrix writes one length-prefixed matrix of ints (row lengths included,
// so ragged and square matrices encode distinctly).
func (h *Hasher) Matrix(m [][]int) {
	h.Int(len(m))
	for _, row := range m {
		h.Ints(row)
	}
}

// Fold writes a previously computed fingerprint, composing hierarchical
// fingerprints without re-hashing the underlying structure.
func (h *Hasher) Fold(f Fingerprint) { h.h.Write(f[:]) }

// Sum finalises and returns the fingerprint. The Hasher must not be written
// to afterwards.
func (h *Hasher) Sum() Fingerprint {
	var f Fingerprint
	h.h.Sum(f[:0])
	return f
}

// Fingerprint returns the content address of the problem graph: task count,
// task sizes, and every edge with its weight. Problems that compare Equal
// fingerprint identically.
func (p *Problem) Fingerprint() Fingerprint {
	return p.fp.memo(p.fingerprint)
}

func (p *Problem) fingerprint() Fingerprint {
	// The successor CSR lists the positive cells of Edge in row-major
	// order, which is exactly the order the encoding has always used.
	s := p.frozen()
	h := NewHasher("mimdmap/problem/v1")
	h.Ints(p.Size)
	h.Int(len(s.succ))
	for i := 0; i+1 < len(s.succOff); i++ {
		for k := s.succOff[i]; k < s.succOff[i+1]; k++ {
			h.Int(i)
			h.Int(s.succ[k])
			h.Int(s.succW[k])
		}
	}
	return h.Sum()
}

// Fingerprint returns the content address of the system graph: node count,
// name, and every link. The name participates because it flows into
// responses (Diagnostics.Machine), so two machines differing only in label
// must not share a response-cache entry.
func (s *System) Fingerprint() Fingerprint {
	return s.fp.memo(s.fingerprint)
}

func (s *System) fingerprint() Fingerprint {
	h := NewHasher("mimdmap/system/v1")
	h.Str(s.Name)
	h.Int(s.NumNodes())
	links := 0
	for i := range s.Adj {
		for j := i + 1; j < len(s.Adj[i]); j++ {
			if s.Adj[i][j] {
				links++
			}
		}
	}
	h.Int(links)
	for i := range s.Adj {
		for j := i + 1; j < len(s.Adj[i]); j++ {
			if s.Adj[i][j] {
				h.Int(i)
				h.Int(j)
			}
		}
	}
	return h.Sum()
}

// Fingerprint returns the content address of the clustering: the exact
// task→cluster map and the cluster count. Relabelled-but-equal partitions
// fingerprint differently by design — cluster IDs are positional inputs to
// the mapper (they index processors in the initial assignment), so two
// relabellings can legitimately map differently. Canonicalise first with
// Canonical to fingerprint the partition structure alone.
func (c *Clustering) Fingerprint() Fingerprint {
	return c.fp.memo(c.fingerprint)
}

func (c *Clustering) fingerprint() Fingerprint {
	h := NewHasher("mimdmap/clustering/v1")
	h.Int(c.K)
	h.Ints(c.Of)
	return h.Sum()
}
