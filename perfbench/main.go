// Command perfbench is the repository benchmark. It runs one named workload
// in-process against the reproduction's public packages, checks every
// output, and prints the metrics as the last line of standard output:
//
//	perfbench --workload repro|cold-sim|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it makes
// a separate traced run, recording spans around the calls into each layer,
// and reports the per-layer metrics. run.sh builds and runs it from a
// checkout; README.md describes the workloads and what each metric should
// move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; the lists below are the single
// source for both the emitted metrics and the checks against
// BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ok_frac", "frac"},
	{"peak_rss_mb", "MB"},
}

// reproIDs are the registry experiments the repro workload regenerates:
// every deterministic one except fig3real and fidelity (wall-clock-driven
// rows, spread over every core) and tilesize (cold P=128 simulation, which
// cold-sim covers).
var reproIDs = []string{
	"banded", "batched", "commcp", "distributed", "fig1", "fig10", "fig11", "fig12",
	"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "gemmsyrk",
	"luqr", "mapping", "memory", "priosrc", "table1", "tablek", "transfer",
	"variants", "ws",
}

func perLayer() []metricDef {
	defs := []metricDef{
		// cold-sim
		{"graph.build_s", "s"},
		{"simulator.prepare_s", "s"},
		{"simulator.run_s", "s"},
		{"simulator.validate_s", "s"},
		{"bounds.mixed_int_s", "s"},
		{"graph.validate_s", "s"},
		{"sched.init_s", "s"},
		{"simulator.ns_per_task", "ns"},
		{"sim_tasks_per_s", "1/s"},
		{"simulator.tasks", "count"},
		{"simulator.transfers", "count"},
		{"simulator.evictions", "count"},
		{"simulator.makespan_sum_s", "s"},
		{"trace.coverage", "frac"},
		// repro
		{"replay.jobs", "count"},
		{"replay.dedup_hits", "count"},
		{"replay.dedup_frac", "frac"},
		{"replay.lane_merges", "count"},
		// serve
		{"service.simulate_p50_ms", "ms"},
		{"service.bounds_p50_ms", "ms"},
		{"service.sweep_p50_ms", "ms"},
		{"service.optimize_p50_ms", "ms"},
		{"service.phase.prep_s", "s"},
		{"service.phase.simulate_s", "s"},
		{"service.phase.bounds_s", "s"},
		{"service.phase.solve_s", "s"},
		{"service.phase.sweep_s", "s"},
		{"service.server_s", "s"},
		{"service.http_overhead_frac", "frac"},
		{"service.sim_events", "count"},
		{"service.cache_hit_frac", "frac"},
		{"service.queue_depth_max", "count"},
		{"service.shed_frac", "frac"},
		{"cpsolve.nodes_per_s", "1/s"},
		// every workload
		{"trace.overhead", "ratio"},
	}
	for _, id := range reproIDs {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s"})
	}
	return defs
}

// run is what one workload execution hands back: the counts and the metric
// values by name. Metrics a workload does not exercise stay absent and are
// reported as 0 (that layer did no work in this workload).
type run struct {
	attempted, failed int
	values            map[string]float64
	facts             map[string]any
}

// env carries the command-line settings into a workload.
type env struct {
	ctx    context.Context
	seed   int64
	trace  bool
	passes int // untraced passes; a traced run alternates that many pairs
}

type workload struct {
	// nominalPass is the expected wall time of one pass on a 2-CPU host; the
	// number of passes is fixed from it and --seconds, so percentiles rest
	// on the same sample count in every run.
	nominalPass float64
	run         func(env) (*run, error)
}

var workloads = map[string]workload{
	"repro":    {nominalPass: 2.5, run: runRepro},
	"cold-sim": {nominalPass: 5, run: runColdSim},
	"serve":    {nominalPass: 2, run: runServe},
}

func main() {
	name := flag.String("workload", "", "workload: repro | cold-sim | serve")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same operation list")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds (sets the number of passes)")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	printDigests := flag.Bool("print-digests", false, "print the repro reference digests for the pinned config and exit")
	flag.Parse()

	if *printDigests {
		if err := printReproDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload repro|cold-sim|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	e := env{ctx: context.Background(), seed: *seed, trace: *traceFlag == 1}
	e.passes = int(math.Max(1, math.Round(float64(*seconds)/w.nominalPass)))
	if e.trace {
		e.passes = (e.passes + 1) / 2
	}
	r, err := w.run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	facts := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traceFlag,
		"passes": e.passes, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	for k, v := range r.facts {
		facts[k] = v
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer()
	}
	out := map[string]metric{}
	for _, d := range defs {
		out[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	factsLine, _ := json.Marshal(map[string]any{"facts": facts})
	fmt.Println(string(factsLine))
	final, _ := json.Marshal(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	fmt.Println(string(final))
}

// timeSetup runs setup reps times and returns the last result with the
// median set-up time, so work moved into set-up shows in setup_s.
func timeSetup[T any](reps int, setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var ts []float64
	for i := 0; i < reps; i++ {
		if i > 0 && release != nil {
			release(last)
		}
		t0 := time.Now()
		v, err := setup()
		ts = append(ts, time.Since(t0).Seconds())
		if err != nil {
			return last, 0, err
		}
		last = v
	}
	return last, median(ts), nil
}

// setupReps is how many times each workload sets up per run.
const setupReps = 5

// settle collects the heap and returns freed memory to the OS before an
// operation, outside its timing: every operation starts from the same
// clean state, as in a fresh process, and pays for none of its
// predecessor's garbage.
func settle() { debug.FreeOSMemory() }

// resetPeakRSS resets the kernel's resident-set high-water mark of this
// process to its current RSS, so peakRSSMB reports the peak of what runs
// next. Where that is not possible peakRSSMB keeps the lifetime peak.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB returns the resident-set high-water mark since the last
// resetPeakRSS (the process's lifetime peak where /proc is unavailable).
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// latencyMetrics fills op_p50_ms and op_tail_ms from per-operation seconds
// and records which percentile the tail is and how many samples it rests on.
func latencyMetrics(r *run, lat []float64) {
	ms := make([]float64, len(lat))
	for i, v := range lat {
		ms[i] = v * 1e3
	}
	r.values["op_p50_ms"] = median(ms)
	q, v, n, ok := tail(ms)
	if !ok {
		// Too few samples for a tail with ten beyond it: report the maximum.
		q, v = 100, maxOf(ms)
	}
	r.values["op_tail_ms"] = v
	r.facts["op_tail_percentile"] = q
	r.facts["op_samples"] = n
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// traceDir is where traced runs write their spans: the build directory
// run.sh uses, relative to the checkout root.
const traceDir = ".bench_build/perfbench-traces"
