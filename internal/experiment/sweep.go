package experiment

import (
	"fmt"
	"strings"

	"mimdmap/internal/stats"
	"mimdmap/internal/textplot"
)

// SweepPoint is one workload configuration of the calibration sweep.
type SweepPoint struct {
	TaskSizeMax, EdgeWeightMax int
	EdgeFactor                 float64
}

// SweepRow summarises Table 2 under one workload configuration.
type SweepRow struct {
	Point                SweepPoint
	OursMin, OursMax     float64
	RandomMin, RandomMax float64
	ImpMin, ImpMax       float64
	AtBound              int
}

// DefaultSweep is the calibration grid `mapbench -sweep` runs: from light
// to heavy communication relative to computation, at the default density.
func DefaultSweep() []SweepPoint {
	return []SweepPoint{
		{TaskSizeMax: 20, EdgeWeightMax: 5, EdgeFactor: 3},  // default
		{TaskSizeMax: 25, EdgeWeightMax: 2, EdgeFactor: 3},  // light comm
		{TaskSizeMax: 30, EdgeWeightMax: 8, EdgeFactor: 3},  // heavy comm
		{TaskSizeMax: 10, EdgeWeightMax: 10, EdgeFactor: 3}, // comm-dominated
	}
}

// Sweep reruns the Table 2 workload for every configuration, reporting the
// ranges of ours/random percentages and improvements — the quantitative
// background for the default weights chosen in Config. The points
// run sequentially while each Table2 call inside fans its experiments out
// across cfg.Workers, so the configured cap bounds the total concurrency
// (nesting both levels would run up to Workers² experiments at once).
// Every point derives its workload from the master seed alone, so the
// sweep is byte-identical at any worker count.
func Sweep(cfg Config, points []SweepPoint) ([]SweepRow, error) {
	if len(points) == 0 {
		points = DefaultSweep()
	}
	var rows []SweepRow
	for _, pt := range points {
		c := cfg
		c.TaskSizeMax = pt.TaskSizeMax
		c.EdgeWeightMax = pt.EdgeWeightMax
		c.EdgeFactor = pt.EdgeFactor
		res, err := Table2(c)
		if err != nil {
			return nil, err
		}
		row := SweepRow{Point: pt, AtBound: res.AtBound}
		for i, r := range res.Rows {
			imp := r.Improvement()
			if i == 0 {
				row.OursMin, row.OursMax = r.OursPct, r.OursPct
				row.RandomMin, row.RandomMax = r.RandomPct, r.RandomPct
				row.ImpMin, row.ImpMax = imp, imp
				continue
			}
			row.OursMin = min(row.OursMin, r.OursPct)
			row.OursMax = max(row.OursMax, r.OursPct)
			row.RandomMin = min(row.RandomMin, r.RandomPct)
			row.RandomMax = max(row.RandomMax, r.RandomPct)
			row.ImpMin = min(row.ImpMin, imp)
			row.ImpMax = max(row.ImpMax, imp)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SweepReport renders the calibration sweep.
func SweepReport(cfg Config) (string, error) {
	rows, err := Sweep(cfg, nil)
	if err != nil {
		return "", err
	}
	headers := []string{"task size", "edge weight", "ours % range", "random % range", "improvement range", "at-bound"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("1-%d", r.Point.TaskSizeMax),
			fmt.Sprintf("1-%d", r.Point.EdgeWeightMax),
			fmt.Sprintf("%d-%d", stats.RoundPercent(r.OursMin), stats.RoundPercent(r.OursMax)),
			fmt.Sprintf("%d-%d", stats.RoundPercent(r.RandomMin), stats.RoundPercent(r.RandomMax)),
			fmt.Sprintf("%d-%d", stats.RoundPercent(r.ImpMin), stats.RoundPercent(r.ImpMax)),
			fmt.Sprintf("%d", r.AtBound),
		})
	}
	var b strings.Builder
	b.WriteString("=== Calibration sweep (Table 2 workload under varying communication weight) ===\n")
	b.WriteString(textplot.Table(headers, cells))
	b.WriteString("light communication pins ours to the bound; heavy communication widens the\n")
	b.WriteString("improvement but pushes every method above it\n")
	return b.String(), nil
}
