package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format shared by the cmd/ tools is line-oriented:
//
//	# comment
//	problem <np>
//	task <id> <size>
//	edge <src> <dst> <weight>
//
//	system <ns> [name]
//	link <a> <b>
//
//	clustering <np> <k>
//	assign <task> <cluster>
//
// Unknown directives are errors; blank lines and #-comments are skipped.
// Header sizes are bounded by MaxTextNodes: the dense n×n structures behind
// a problem or system make larger graphs impractical anyway, and the bound
// keeps a hostile few-byte header ("problem 99999999") from allocating
// gigabytes before validation can reject it.

// MaxTextNodes bounds the declared size of any graph read from the text
// format — tasks of a problem, nodes of a system, tasks of a clustering.
const MaxTextNodes = 1 << 14

// headerSize validates a parsed header count against [0, MaxTextNodes].
func headerSize(n int, what string) error {
	if n < 0 {
		return fmt.Errorf("%s %d is negative", what, n)
	}
	if n > MaxTextNodes {
		return fmt.Errorf("%s %d exceeds the text-format limit %d", what, n, MaxTextNodes)
	}
	return nil
}

// WriteProblem writes p in the text format.
func WriteProblem(w io.Writer, p *Problem) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "problem %d\n", p.NumTasks())
	for i, s := range p.Size {
		fmt.Fprintf(bw, "task %d %d\n", i, s)
	}
	for _, e := range p.EdgeList() {
		fmt.Fprintf(bw, "edge %d %d %d\n", e[0], e[1], e[2])
	}
	return bw.Flush()
}

// WriteSystem writes s in the text format.
func WriteSystem(w io.Writer, s *System) error {
	bw := bufio.NewWriter(w)
	if s.Name != "" {
		fmt.Fprintf(bw, "system %d %s\n", s.NumNodes(), s.Name)
	} else {
		fmt.Fprintf(bw, "system %d\n", s.NumNodes())
	}
	for i := range s.Adj {
		for j := i + 1; j < len(s.Adj[i]); j++ {
			if s.Adj[i][j] {
				fmt.Fprintf(bw, "link %d %d\n", i, j)
			}
		}
	}
	return bw.Flush()
}

// WriteClustering writes c in the text format.
func WriteClustering(w io.Writer, c *Clustering) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "clustering %d %d\n", c.NumTasks(), c.K)
	for t, k := range c.Of {
		fmt.Fprintf(bw, "assign %d %d\n", t, k)
	}
	return bw.Flush()
}

// ReadProblem parses a problem graph from the text format and validates it.
func ReadProblem(r io.Reader) (*Problem, error) {
	var p *Problem
	err := scanLines(r, func(line int, fields []string) error {
		switch fields[0] {
		case "problem":
			n, err := atoiField(fields, 1, "problem size")
			if err != nil {
				return err
			}
			if err := headerSize(n, "problem size"); err != nil {
				return err
			}
			p = NewProblem(n)
		case "task":
			if p == nil {
				return fmt.Errorf("task before problem header")
			}
			id, err := atoiField(fields, 1, "task id")
			if err != nil {
				return err
			}
			sz, err := atoiField(fields, 2, "task size")
			if err != nil {
				return err
			}
			if id < 0 || id >= p.NumTasks() {
				return fmt.Errorf("task id %d out of range [0,%d)", id, p.NumTasks())
			}
			p.Size[id] = sz
		case "edge":
			if p == nil {
				return fmt.Errorf("edge before problem header")
			}
			src, err := atoiField(fields, 1, "edge src")
			if err != nil {
				return err
			}
			dst, err := atoiField(fields, 2, "edge dst")
			if err != nil {
				return err
			}
			w, err := atoiField(fields, 3, "edge weight")
			if err != nil {
				return err
			}
			if src < 0 || src >= p.NumTasks() || dst < 0 || dst >= p.NumTasks() {
				return fmt.Errorf("edge %d→%d out of range", src, dst)
			}
			p.Edge[src][dst] = w // p is unfrozen until the Validate below
		default:
			return fmt.Errorf("unknown directive %q", fields[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("graph: input contains no problem header")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// ReadSystem parses a system graph from the text format and validates it.
func ReadSystem(r io.Reader) (*System, error) {
	var s *System
	err := scanLines(r, func(line int, fields []string) error {
		switch fields[0] {
		case "system":
			n, err := atoiField(fields, 1, "system size")
			if err != nil {
				return err
			}
			if err := headerSize(n, "system size"); err != nil {
				return err
			}
			s = NewSystem(n)
			if len(fields) > 2 {
				s.Name = strings.Join(fields[2:], " ")
			}
		case "link":
			if s == nil {
				return fmt.Errorf("link before system header")
			}
			a, err := atoiField(fields, 1, "link a")
			if err != nil {
				return err
			}
			b, err := atoiField(fields, 2, "link b")
			if err != nil {
				return err
			}
			if a < 0 || a >= s.NumNodes() || b < 0 || b >= s.NumNodes() {
				return fmt.Errorf("link %d—%d out of range", a, b)
			}
			s.AddLink(a, b)
		default:
			return fmt.Errorf("unknown directive %q", fields[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("graph: input contains no system header")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadClustering parses a clustering from the text format and validates it.
func ReadClustering(r io.Reader) (*Clustering, error) {
	var c *Clustering
	err := scanLines(r, func(line int, fields []string) error {
		switch fields[0] {
		case "clustering":
			n, err := atoiField(fields, 1, "clustering size")
			if err != nil {
				return err
			}
			k, err := atoiField(fields, 2, "clustering k")
			if err != nil {
				return err
			}
			if err := headerSize(n, "clustering size"); err != nil {
				return err
			}
			if err := headerSize(k, "clustering k"); err != nil {
				return err
			}
			c = NewClustering(n, k)
		case "assign":
			if c == nil {
				return fmt.Errorf("assign before clustering header")
			}
			t, err := atoiField(fields, 1, "assign task")
			if err != nil {
				return err
			}
			k, err := atoiField(fields, 2, "assign cluster")
			if err != nil {
				return err
			}
			if t < 0 || t >= c.NumTasks() {
				return fmt.Errorf("assign task %d out of range", t)
			}
			c.Of[t] = k
		default:
			return fmt.Errorf("unknown directive %q", fields[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("graph: input contains no clustering header")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func scanLines(r io.Reader, handle func(line int, fields []string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if err := handle(line, strings.Fields(text)); err != nil {
			return fmt.Errorf("graph: line %d: %w", line, err)
		}
	}
	return sc.Err()
}

func atoiField(fields []string, idx int, what string) (int, error) {
	if idx >= len(fields) {
		return 0, fmt.Errorf("missing %s", what)
	}
	n, err := strconv.Atoi(fields[idx])
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", what, fields[idx])
	}
	return n, nil
}

// EdgeList returns the problem edges as (src,dst,weight) triples sorted by
// source then destination — a convenience for deterministic iteration and
// for rendering.
func (p *Problem) EdgeList() [][3]int {
	s := p.frozen()
	es := make([][3]int, 0, len(s.succ))
	for i := 0; i+1 < len(s.succOff); i++ {
		for k := s.succOff[i]; k < s.succOff[i+1]; k++ {
			es = append(es, [3]int{i, s.succ[k], s.succW[k]})
		}
	}
	return es
}
