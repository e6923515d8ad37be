// Command perfbench is the repository's benchmark: one process runs one
// workload for a fixed time, checks every response independently of the
// solver, and prints its metrics, the last line a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced, half the time each, to give
// the tracing overhead and per-layer spans, then probes a few pool entries
// through every layer, the public decomposition of a solve included (see
// probe), and reports the per-layer metrics; its spans are written to
// .bench_build. --runs N runs N fresh processes
// on consecutive seeds and summarises each metric by median and quartiles.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mimdmap/internal/fleet"
	"mimdmap/internal/service"
)

// setupRepeats is how often a run builds its workload; setup_s is the
// median, and the last build is the one measured.
const setupRepeats = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of each timed loop")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	runs := fs.Int("runs", 1, "run this many fresh processes on consecutive seeds and summarise")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *runs > 1 {
		return summarise(stdout, stderr, *name, *seed, *seconds, *trace, *runs)
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	out, err := measure(stdout, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure builds the workload setupRepeats times, runs it, and returns the
// result line. Human-readable detail goes to w as it is measured.
func measure(w io.Writer, name string, seed int64, d time.Duration, traced bool) (*result, error) {
	var (
		wl     *workload
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		began := time.Now()
		var err error
		if wl, err = buildWorkload(name, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(began).Seconds())
	}
	describe(w, wl)
	if traced {
		// The traced run times two loops, untraced then traced, in the
		// wall time of one.
		d /= 2
	}
	plain := wl.loop(d, false)
	out := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: make(map[string]metric)}
	report := func(name string, v float64, unit string) {
		out.Metrics[name] = metric{v, unit}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", name, v, unit)
	}
	var errs []error
	if plain.err != nil {
		errs = append(errs, plain.err)
	}
	if !traced {
		lat := plain.latencies()
		pct, tailMS, beyond, windows := windowedTail(lat)
		report("setup_s", median(setups), "s")
		report("solves_per_s", plain.rate(), "1/s")
		report("solve_p50_ms", median(lat), "ms")
		report("solve_tail_ms", tailMS, "ms")
		fmt.Fprintf(w, "%-34s p%g, %d beyond it in each of %d windows of %d samples\n", "  solve_tail_ms percentile", pct, beyond, windows, len(lat)/windows)
		report("bytes_per_solve", float64(plain.alloc)/float64(plain.requests), "B")
		report("allocs_per_solve", float64(plain.mallocs)/float64(plain.requests), "count")
		report("peak_rss_mb", peakRSSMB(), "MB")
		report("quality_ratio", mean(plain.quality), "ratio")
		fmt.Fprintf(w, "%-34s %d hits, %d coalesced, %d forwarded, %d GC cycles\n", "  responses", plain.hits, plain.coalesced, plain.forwarded, plain.gcCycles)
		if len(plain.remapLat) > 0 {
			fmt.Fprintf(w, "%-34s %14.6g ms (%d remaps)\n", "remap_p50_ms", median(plain.remapLat), len(plain.remapLat))
		}
	} else {
		tr := wl.loop(d, true)
		if tr.err != nil {
			errs = append(errs, tr.err)
		}
		out.Attempted += tr.attempted
		out.Failed += tr.failed
		probeLog := newSpanLog(time.Now())
		var ps probeStats
		ctx := context.Background()
		for _, idx := range wl.probes {
			probeLog.req = int64(-1 - idx)
			out.Attempted++
			if err := probe(ctx, &wl.pool[idx], wl.perturb, seed+int64(idx), probeLog, &ps); err != nil {
				out.Failed++
				errs = append(errs, fmt.Errorf("probe: %w", err))
			}
		}
		logs := append(tr.logs, probeLog)
		if path, err := writeSpans(".bench_build", fmt.Sprintf("perfbench-trace-%s-%d.json", name, seed), logs); err != nil {
			errs = append(errs, err)
		} else {
			fmt.Fprintf(w, "spans written to %s\n", path)
		}
		perLayer(report, durations(logs), &ps, plain, tr)
	}
	fmt.Fprintf(w, "%-34s %14.6g ratio (%d of %d)\n", "fail_frac", float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	for _, err := range errs {
		fmt.Fprintln(w, "FAIL:", err)
	}
	out.Correct = len(errs) == 0 && out.Failed == 0
	return out, nil
}

// perLayer reports the per-layer metrics from the traced loop's and the
// probe's spans, the probe's counters, and the loops' solver counters.
func perLayer(report func(string, float64, string), dur map[string][]float64, ps *probeStats, plain, tr *loopResult) {
	ms := func(span string) float64 { return median(dur[span]) }
	us := func(span string) float64 { return 1000 * median(dur[span]) }
	bytes := func(name string) float64 { return median(ps.bytes[name]) }
	n := float64(tr.requests)

	report("graph.decode_ms", ms("graph.decode"), "ms")
	report("graph.decode_bytes", bytes("graph.decode_bytes"), "B")
	report("graph.fingerprint_us", us("graph.fingerprint"), "us")
	report("graph.diff_us", us("graph.diff"), "us")
	report("graph.project_us", us("graph.project"), "us")

	report("core.validate_ms", ms("core.validate"), "ms")
	report("ideal.derive_ms", ms("ideal.derive"), "ms")
	report("ideal.derive_bytes", bytes("ideal.derive_bytes"), "B")
	report("critical.analyze_ms", ms("critical.analyze"), "ms")
	report("critical.analyze_bytes", bytes("critical.analyze_bytes"), "B")
	report("paths.new_ms", ms("paths.new"), "ms")
	report("schedule.new_evaluator_ms", ms("schedule.new_evaluator"), "ms")
	report("schedule.new_evaluator_bytes", bytes("schedule.new_evaluator_bytes"), "B")
	report("core.initial_ms", ms("core.initial"), "ms")
	report("schedule.evaluate_ms", ms("schedule.evaluate"), "ms")

	report("search.refine_ms", ms("search.refine"), "ms")
	report("search.trials_per_solve", ratio(ps.trials, ps.refines), "count")
	refineMS := 0.0
	for _, d := range dur["search.refine"] {
		refineMS += d
	}
	report("search.ns_per_trial", 1e6*refineMS/float64(max(ps.trials, 1)), "ns")
	report("search.improve_frac", ratio(ps.improved, ps.trials), "ratio")
	report("search.optimal_frac", float64(tr.optimal)/n, "ratio")

	report("service.hit_us", us("service.hit"), "us")
	report("service.miss_ms", ms("service.miss"), "ms")
	report("service.remap_p50_ms", ms("service.remap"), "ms")
	report("service.hit_frac", float64(tr.hits)/n, "ratio")
	report("service.coalesced_frac", float64(tr.coalesced)/n, "ratio")
	st := tr.statsDelta()
	report("service.evictions_per_kreq", 1000*float64(st.ResultEvictions)/n, "count")
	report("service.dist_hit_frac", ratio(int(st.DistHits), int(st.DistHits+st.DistMisses)), "ratio")
	report("service.warm_frac", ratio(int(st.WarmStarts), int(st.Remaps)), "ratio")

	report("fleet.forwarded_frac", float64(tr.forwarded)/n, "ratio")
	report("fleet.forward_errors", float64(st.ForwardErrors), "count")
	report("fleet.admitted", float64(tr.adm1.Admitted-tr.adm0.Admitted), "count")
	report("fleet.shed", float64(tr.adm1.Shed-tr.adm0.Shed), "count")

	report("runtime.gc_cycles_per_solve", float64(plain.gcCycles)/float64(plain.requests), "count")
	report("runtime.gc_cpu_frac", plain.gcCPU, "ratio")
	report("trace_overhead_frac", 1-tr.rate()/plain.rate(), "ratio")
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// describe prints the input sizes of a workload.
func describe(w io.Writer, wl *workload) {
	var tasks, procs, body []float64
	remaps := 0
	for _, e := range wl.pool {
		tasks = append(tasks, float64(len(e.chk.size)))
		procs = append(procs, float64(e.chk.k))
		body = append(body, float64(len(e.body)))
		if e.remap {
			remaps++
		}
	}
	fmt.Fprintf(w, "workload %s: pool %d entries (%d remaps) in operations of %d, np median %g, ns %g..%g, body median %g B, %d clients, %d replicas",
		wl.name, len(wl.pool), remaps, wl.batch, median(tasks), sorted(procs)[0], sorted(procs)[len(procs)-1], median(body), wl.clients, len(wl.solvers))
	if c := wl.solvers[0].MaxCachedResults; c > 0 {
		fmt.Fprintf(w, ", response cache %d per replica", c)
	}
	fmt.Fprintln(w)
}

// completion records one finished operation: when, how long it took, and
// how many requests it carried.
type completion struct {
	at       time.Duration // since the loop started
	ms       float64
	requests int
}

// loopResult is what one timed loop measured.
type loopResult struct {
	wall              time.Duration
	attempted, failed int          // operations
	err               error        // first failure
	done              []completion // in completion order
	remapLat          []float64
	quality           []float64
	requests          int
	hits, coalesced   int
	forwarded         int
	optimal           int
	alloc, mallocs    uint64
	gcCycles          uint32
	gcCPU             float64
	st0, st1          service.Stats
	adm0, adm1        fleet.AdmissionStats
	logs              []*spanLog
}

func (r *loopResult) latencies() []float64 {
	out := make([]float64, len(r.done))
	for i, c := range r.done {
		out[i] = c.ms
	}
	return out
}

// rateWindows is the number of equal runs of completions the request rate
// is measured over; their median resists a burst of stalls.
const rateWindows = 16

// rate returns completed requests per second of wall clock: the median
// over rateWindows consecutive runs of operations, or the whole loop when
// it completed too few operations to split.
func (r *loopResult) rate() float64 {
	n := len(r.done)
	if n < 2*rateWindows {
		return float64(r.requests) / r.wall.Seconds()
	}
	var rates []float64
	var from time.Duration
	for k := 0; k < rateWindows; k++ {
		window := r.done[k*n/rateWindows : (k+1)*n/rateWindows]
		requests := 0
		for _, c := range window {
			requests += c.requests
		}
		to := window[len(window)-1].at
		rates = append(rates, float64(requests)/(to-from).Seconds())
		from = to
	}
	return median(rates)
}

func (r *loopResult) statsDelta() service.Stats {
	return service.Stats{
		ResultEvictions: r.st1.ResultEvictions - r.st0.ResultEvictions,
		DistHits:        r.st1.DistHits - r.st0.DistHits,
		DistMisses:      r.st1.DistMisses - r.st0.DistMisses,
		Remaps:          r.st1.Remaps - r.st0.Remaps,
		WarmStarts:      r.st1.WarmStarts - r.st0.WarmStarts,
		ForwardErrors:   r.st1.ForwardErrors - r.st0.ForwardErrors,
	}
}

// loop runs the workload's clients closed-loop: each issues the next
// operation of the shared stream as soon as its previous one returns,
// until d has passed and the first minOps operations are done.
func (w *workload) loop(d time.Duration, traced bool) *loopResult {
	runtime.GC()
	r := &loopResult{quality: make([]float64, w.minOps)}
	r.st0, r.adm0 = w.stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gcCPU0, total0 := cpuSeconds()

	type client struct {
		attempted, failed, requests, hits, coalesced, forwarded, optimal int
		err                                                              error
		done                                                             []completion
		remapLat                                                         []float64
		log                                                              *spanLog
	}
	clients := make([]client, w.clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range clients {
		cl := &clients[c]
		cl.done = make([]completion, 0, 1<<14)
		if traced {
			cl.log = newSpanLog(start)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := withSpanLog(context.Background(), cl.log)
			var ck checker
			for {
				i := int(next.Add(1) - 1)
				if i >= w.minOps && !time.Now().Before(deadline) {
					return
				}
				g := w.stream[i%len(w.stream)]
				if cl.log != nil {
					cl.log.req = int64(i)
				}
				began := time.Now()
				resps, err := w.do(ctx, i, g, cl.log, &ck)
				ms := float64(time.Since(began)) / 1e6
				cl.attempted++
				if err != nil {
					cl.failed++
					if cl.err == nil {
						cl.err = fmt.Errorf("operation %d: %w", i, err)
					}
					continue
				}
				cl.done = append(cl.done, completion{time.Since(start), ms, len(resps)})
				cl.requests += len(resps)
				if w.pool[g*w.batch].remap {
					cl.remapLat = append(cl.remapLat, ms)
				}
				q := 0.0
				for _, resp := range resps {
					q += float64(resp.Result.TotalTime) / float64(resp.Result.LowerBound)
					dg := resp.Diagnostics
					cl.hits += btoi(dg.CacheHit)
					cl.coalesced += btoi(dg.Coalesced)
					cl.forwarded += btoi(dg.Forwarded && !dg.CacheHit)
					cl.optimal += btoi(resp.Result.OptimalProven)
				}
				if i < w.minOps {
					r.quality[i] = q / float64(len(resps))
				}
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	gcCPU1, total1 := cpuSeconds()
	r.st1, r.adm1 = w.stats()
	r.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.gcCycles = ms1.NumGC - ms0.NumGC
	if total1 > total0 {
		r.gcCPU = (gcCPU1 - gcCPU0) / (total1 - total0)
	}
	for i := range clients {
		cl := &clients[i]
		r.attempted += cl.attempted
		r.failed += cl.failed
		r.requests += cl.requests
		r.hits += cl.hits
		r.coalesced += cl.coalesced
		r.forwarded += cl.forwarded
		r.optimal += cl.optimal
		r.done = append(r.done, cl.done...)
		r.remapLat = append(r.remapLat, cl.remapLat...)
		if r.err == nil {
			r.err = cl.err
		}
		if cl.log != nil {
			r.logs = append(r.logs, cl.log)
		}
	}
	sort.Slice(r.done, func(i, j int) bool { return r.done[i].at < r.done[j].at })
	return r
}

// cpuSeconds reads the runtime's GC CPU time and the total CPU time
// available to the process (GOMAXPROCS × wall time).
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// summarise runs n fresh processes of this binary on seeds seed..seed+n-1
// and prints, per metric, the median, the quartiles and the sample count.
func summarise(stdout, stderr io.Writer, name string, seed int64, seconds float64, trace, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	failed := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		outb, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", s, err)
			return 1
		}
		res, err := lastResult(outb)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", s, err)
			return 1
		}
		if !res.Correct || res.Failed > 0 {
			failed++
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Fprintf(stdout, "seed %d:", s)
		for _, k := range []string{"solves_per_s", "solve_p50_ms", "solve_tail_ms", "peak_rss_mb", "setup_s"} {
			if m, ok := res.Metrics[k]; ok {
				fmt.Fprintf(stdout, " %s=%.4g", k, m.Value)
			}
		}
		fmt.Fprintln(stdout)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	type summary struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		N      int     `json:"n"`
		Unit   string  `json:"unit"`
	}
	all := make(map[string]summary)
	for _, k := range names {
		v := values[k]
		q1, q3 := quartiles(v)
		s := summary{median(v), q1, q3, len(v), units[k]}
		all[k] = s
		spread := math.NaN()
		if s.Median != 0 {
			spread = (q3 - q1) / math.Abs(s.Median)
		}
		fmt.Fprintf(stdout, "%-34s median %12.6g  q1 %12.6g  q3 %12.6g  n %d  spread %.4f %s\n", k, s.Median, q1, q3, s.N, spread, s.Unit)
	}
	// Plain numbers and strings always marshal.
	line, _ := json.Marshal(map[string]any{"workload": name, "runs": n, "incorrect_runs": failed, "metrics": all})
	fmt.Fprintln(stdout, string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// lastResult parses the result object on the last non-empty output line.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	if last == nil {
		return nil, errors.New("no output")
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}
