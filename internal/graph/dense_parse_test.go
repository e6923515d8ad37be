package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// readProblemDense is the reference parser ReadProblem is checked against:
// it writes every edge line into the np×np Edge matrix of a NewProblem and
// freezes that, splitting lines with strings.Fields.
func readProblemDense(r io.Reader) (*Problem, error) {
	var p *Problem
	err := denseScanLines(r, func(line int, fields []string) error {
		switch fields[0] {
		case "problem":
			n, err := denseAtoiField(fields, 1, "problem size")
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
			id, err := denseAtoiField(fields, 1, "task id")
			if err != nil {
				return err
			}
			sz, err := denseAtoiField(fields, 2, "task size")
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
			src, err := denseAtoiField(fields, 1, "edge src")
			if err != nil {
				return err
			}
			dst, err := denseAtoiField(fields, 2, "edge dst")
			if err != nil {
				return err
			}
			w, err := denseAtoiField(fields, 3, "edge weight")
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

func denseScanLines(r io.Reader, handle func(line int, fields []string) error) error {
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

func denseAtoiField(fields []string, idx int, what string) (int, error) {
	if idx >= len(fields) {
		return 0, fmt.Errorf("missing %s", what)
	}
	n, err := strconv.Atoi(fields[idx])
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", what, fields[idx])
	}
	return n, nil
}
