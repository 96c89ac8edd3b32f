// Command cholbench runs the repository's pinned benchmark suite and emits
// a machine-readable BENCH_*.json perf record (see internal/benchio for the
// schema). Unlike `go test -bench`, iteration counts are fixed per
// configuration, so allocs/op is exact and two runs — before and after an
// optimisation, or two PRs apart — are directly comparable.
//
// The suite covers the hot paths of the reproduction:
//
//   - the discrete-event simulator at P ∈ {16, 64, 128} tiles under the
//     dmda, dmdas and random policies;
//   - the same event loop with the obs event recorder attached (sim-recorded/*),
//     pinning the cost of decision tracing against the nil-recorder fast path;
//   - the event loop with the live-progress probe attached at its default
//     interval (sim-probed/*), pinning the frame-emission overhead against
//     the nil-probe fast path — with bit-identical schedule digests enforced
//     probe-on versus probe-off;
//   - the DAG build alone (graph/build/P=96): graph.Cholesky's
//     dependency inference, pinning its allocs/op at a small constant;
//   - cold simulation prep (prep/cold/*): a fresh DAG per iteration through
//     graph.Cholesky → simulator.Prepare → dmdas Init at P ∈ {64, 128}, so
//     the once-per-DAG census is measured, not amortized away;
//   - the full cold chain (sim/cold/*): a fresh DAG per iteration through
//     core.Simulate — Prepare → Run → Validate → MixedInt — at P=96, the
//     only case where an event-loop cost that grows with the DAG (e.g. an
//     O(resident tiles) residency update) shows up at cold-run scale;
//   - the AreaInt / MixedInt bound ILPs at P ∈ {32, 64, 128};
//   - one end-to-end sweep (sizes × schedulers on the parallel sweep pool);
//   - the batched replay paths (sweep/multi-seed/*, sweep/delta/*): N-seed
//     sweeps through internal/replay versus the serial loop, and delta
//     re-simulation of a knob sweep versus from-scratch runs — with
//     bit-identical digests enforced in passing;
//   - the event-level lane executor (sweep/jitter-lanes/*): a 32-seed
//     jitter sweep through replay.Seeds versus a run-level baseline (one
//     full event loop per seed on pooled arenas), with per-seed digests
//     enforced and the speedup gated at >= 2x.
//
// Usage:
//
//	cholbench -out BENCH_PR3.json                 # full suite
//	cholbench -out BENCH_PR3.json -baseline-from BENCH_old.json
//	cholbench -smoke                              # <60s sanity run for CI
//	cholbench -gobench -out suite.json            # also print benchstat text
//	cholbench -smoke -cpuprofile cpu.pprof        # profile the suite itself
//	cholbench -smoke -memprofile mem.pprof        # heap profile at exit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/benchio"
	"repro/internal/bounds"
	"repro/internal/cpsolve"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/simulator"
	"repro/internal/sweep"

	"repro/internal/core"
)

type simCase struct {
	p     int
	sched string
	iters int
}

type boundCase struct {
	p     int
	name  string
	iters int
	run   func(*graph.DAG, *platform.Platform) (bounds.Result, error)
}

func fullSimCases() []simCase {
	var cs []simCase
	iters := map[int]int{16: 20, 64: 3, 128: 1}
	for _, p := range []int{16, 64, 128} {
		for _, s := range []string{"dmda", "dmdas", "random"} {
			cs = append(cs, simCase{p: p, sched: s, iters: iters[p]})
		}
	}
	return cs
}

func fullBoundCases() []boundCase {
	var cs []boundCase
	for _, p := range []int{32, 64, 128} {
		cs = append(cs,
			boundCase{p: p, name: "area-int", iters: 20, run: bounds.AreaInt},
			boundCase{p: p, name: "mixed-int", iters: 20, run: bounds.MixedInt},
		)
	}
	return cs
}

func main() {
	smoke := flag.Bool("smoke", false, "reduced <60s suite: run, sanity-check, write nothing")
	out := flag.String("out", "BENCH_PR16.json", "output JSON path")
	baselineFrom := flag.String("baseline-from", "", "previous suite JSON whose results become this run's embedded baseline")
	note := flag.String("note", "", "free-form note stored in the suite")
	gobench := flag.Bool("gobench", false, "also print results in Go benchmark text format (for benchstat)")
	gobenchFrom := flag.String("gobench-from", "", "print a previously written suite JSON in Go benchmark text format and exit (benchstat's old side)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole suite to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile taken at suite completion to this file")
	flag.Parse()

	if *gobenchFrom != "" {
		prev, err := benchio.ReadFile(*gobenchFrom)
		if err != nil {
			fatal(err)
		}
		fmt.Print(benchio.FormatGoBench(prev.Results))
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuProfileStop = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
		defer cpuProfileStop()
	}
	defer writeMemProfile(*memprofile)

	simCases, boundCases := fullSimCases(), fullBoundCases()
	recCases := []simCase{
		{p: 16, sched: "dmda", iters: 20},
		{p: 64, sched: "dmda", iters: 3},
	}
	probedCases := []simCase{
		{p: 16, sched: "dmda", iters: 20},
		{p: 64, sched: "dmda", iters: 3},
	}
	prepCases := []struct{ p, iters int }{{p: 64, iters: 3}, {p: 128, iters: 1}}
	coldCases := []simCase{{p: 96, sched: "dmda", iters: 3}}
	if *smoke {
		simCases = []simCase{
			{p: 16, sched: "dmda", iters: 3},
			{p: 16, sched: "dmdas", iters: 3},
			{p: 16, sched: "random", iters: 3},
			{p: 64, sched: "dmdas", iters: 1},
		}
		boundCases = []boundCase{
			{p: 32, name: "area-int", iters: 3, run: bounds.AreaInt},
			{p: 32, name: "mixed-int", iters: 3, run: bounds.MixedInt},
		}
		recCases = []simCase{{p: 16, sched: "dmda", iters: 3}}
		probedCases = []simCase{{p: 16, sched: "dmda", iters: 3}}
		prepCases = prepCases[:1]
		prepCases[0].iters = 1
		coldCases[0].iters = 1
	}

	suite := benchio.NewSuite("cholbench")
	suite.Note = *note
	if *baselineFrom != "" {
		prev, err := benchio.ReadFile(*baselineFrom)
		if err != nil {
			fatal(err)
		}
		// A previous run that itself carried a baseline passes the *original*
		// baseline through, so the trajectory always compares against the
		// oldest recorded numbers.
		suite.Baseline = prev.Results
		if len(prev.Baseline) > 0 {
			suite.Baseline = prev.Baseline
		}
	}

	pf := platform.Mirage()

	// Simulator hot path. DAG construction is hoisted out of the measured
	// function: the suite targets the event loop, not the builder. The plain
	// timings also serve as the denominator for sim-probed/*'s
	// overhead_vs_plain metric.
	simNs := map[string]float64{}
	for _, c := range simCases {
		d := graph.Cholesky(c.p)
		flops := kernels.CholeskyFlops(c.p * platform.TileNB)
		var last *simulator.Result
		r := benchio.Measure(fmt.Sprintf("sim/P=%d/%s", c.p, c.sched), c.iters, func() {
			s, err := core.NewScheduler(c.sched)
			if err != nil {
				fatal(err)
			}
			res, err := simulator.Run(d, pf, s, simulator.Options{Seed: 42})
			if err != nil {
				fatal(err)
			}
			last = res
		})
		if last.MakespanSec <= 0 {
			fatal(fmt.Errorf("cholbench: sim P=%d/%s produced non-positive makespan", c.p, c.sched))
		}
		r = r.WithMetric("sim_gflops", last.GFlops(flops)).
			WithMetric("tasks_per_sec", float64(len(d.Tasks))/(r.NsPerOp/1e9))
		simNs[r.Name] = r.NsPerOp
		suite.Add(r)
		progress(r)
	}

	// DAG build alone: graph.Cholesky at the cold chain's size. The builder
	// carves tasks, footprints and edge lists from presized slabs, so
	// allocs/op is a small constant, not a per-task count.
	{
		iters := 5
		if *smoke {
			iters = 1
		}
		var tasks int
		r := benchio.Measure("graph/build/P=96", iters, func() {
			tasks = len(graph.Cholesky(96).Tasks)
		})
		r = r.WithMetric("tasks_per_sec", float64(tasks)/(r.NsPerOp/1e9))
		suite.Add(r)
		progress(r)
	}

	// Cold simulation prep: a fresh DAG per iteration through build →
	// simulator.Prepare → dmdas Init, so the DAG census (validation,
	// topological order, kind and size groups) is derived inside the
	// measured function. The sim/* and bounds/* cases hoist the DAG and
	// therefore measure warm-census numbers; these keep a prep-layer
	// regression from hiding behind that hoist.
	for _, c := range prepCases {
		var tasks int
		r := benchio.Measure(fmt.Sprintf("prep/cold/P=%d", c.p), c.iters, func() {
			d := graph.Cholesky(c.p)
			if _, err := simulator.Prepare(d, pf); err != nil {
				fatal(err)
			}
			sched.NewDMDAS().Init(d, pf, 42)
			tasks = len(d.Tasks)
		})
		r = r.WithMetric("tasks_per_sec", float64(tasks)/(r.NsPerOp/1e9))
		suite.Add(r)
		progress(r)
	}

	// Full cold chain: everything core.Simulate does, DAG build included.
	// sim/* hoists the DAG and prep/cold/* stops before the event loop, so
	// neither sees a regression that only a cold, large run exercises.
	for _, c := range coldCases {
		flops := kernels.CholeskyFlops(c.p * platform.TileNB)
		var last *core.SimulationReport
		r := benchio.Measure(fmt.Sprintf("sim/cold/P=%d/%s", c.p, c.sched), c.iters, func() {
			s, err := core.NewScheduler(c.sched)
			if err != nil {
				fatal(err)
			}
			rep, err := core.Simulate(context.Background(), c.p, pf, s, simulator.Options{Seed: 42})
			if err != nil {
				fatal(err)
			}
			last = rep
		})
		if last.Efficiency <= 0 || last.Efficiency > 1+1e-9 {
			fatal(fmt.Errorf("cholbench: sim/cold P=%d/%s efficiency %g outside (0, 1]", c.p, c.sched, last.Efficiency))
		}
		tasks := len(last.Result.Start)
		r = r.WithMetric("sim_gflops", last.Result.GFlops(flops)).
			WithMetric("tasks_per_sec", float64(tasks)/(r.NsPerOp/1e9))
		suite.Add(r)
		progress(r)
	}

	// The same event loop with the obs recorder attached. The sim/* cases
	// above pin the nil-recorder fast path (comparable against PR2 via
	// -baseline-from); these pin the recording overhead, with a reused
	// recorder so steady-state capacity is measured, not first-run growth.
	// The harness also enforces the observability contract: recording must
	// not move a single task.
	for _, c := range recCases {
		d := graph.Cholesky(c.p)
		s, err := core.NewScheduler(c.sched)
		if err != nil {
			fatal(err)
		}
		plain, err := simulator.Run(d, pf, s, simulator.Options{Seed: 42})
		if err != nil {
			fatal(err)
		}
		rec := obs.NewRecorder()
		var last *simulator.Result
		r := benchio.Measure(fmt.Sprintf("sim-recorded/P=%d/%s", c.p, c.sched), c.iters, func() {
			rec.Reset()
			s, err := core.NewScheduler(c.sched)
			if err != nil {
				fatal(err)
			}
			res, err := simulator.Run(d, pf, s, simulator.Options{Seed: 42, Recorder: rec})
			if err != nil {
				fatal(err)
			}
			last = res
		})
		for id := range d.Tasks {
			// Bit-equality is the point: recording must not perturb the
			// schedule by even one ulp.
			if last.Worker[id] != plain.Worker[id] || last.Start[id] != plain.Start[id] { //chollint:floateq
				fatal(fmt.Errorf("cholbench: recording perturbed the P=%d/%s schedule at task %d", c.p, c.sched, id))
			}
		}
		r = r.WithMetric("events", float64(rec.Events())).
			WithMetric("mean_decision_depth", rec.MeanDecisionDepth())
		suite.Add(r)
		progress(r)
	}

	// The event loop with the live-progress probe attached at its default
	// interval (PR8). The sim/* cases pin the nil-probe fast path (probe and
	// recorder share one disabled-cost budget: the allocs/op there must not
	// move); these pin the enabled cost — overhead_vs_plain is the
	// probed/plain ratio, gated at ≤1.05 for P=64. The ratio is measured as
	// two interleaved plain/probed pairs and gated on the better pair: a
	// genuine overhead regression inflates every pair, while transient host
	// load (the measured swing on shared runners is far above the 5% gate
	// margin) inflates only the pair it lands on. The adjacent baselines —
	// rather than the sim/* numbers from minutes earlier in the suite —
	// keep both sides of the division on the same machine state. The
	// harness also enforces the probe contract: emitting frames must not
	// move a single task, checked as bit-identical schedule digests.
	for _, c := range probedCases {
		d := graph.Cholesky(c.p)
		s, err := core.NewScheduler(c.sched)
		if err != nil {
			fatal(err)
		}
		plain, err := simulator.Run(d, pf, s, simulator.Options{Seed: 42})
		if err != nil {
			fatal(err)
		}
		var frames int64
		probe := obs.NewProbe(0, func(obs.Frame) { frames++ })
		var last *simulator.Result
		measurePlain := func() benchio.Result {
			return benchio.Measure(fmt.Sprintf("sim-probed-baseline/P=%d/%s", c.p, c.sched), c.iters, func() {
				s, err := core.NewScheduler(c.sched)
				if err != nil {
					fatal(err)
				}
				if _, err := simulator.Run(d, pf, s, simulator.Options{Seed: 42}); err != nil {
					fatal(err)
				}
			})
		}
		measureProbed := func() benchio.Result {
			return benchio.Measure(fmt.Sprintf("sim-probed/P=%d/%s", c.p, c.sched), c.iters, func() {
				probe.Reset()
				s, err := core.NewScheduler(c.sched)
				if err != nil {
					fatal(err)
				}
				res, err := simulator.Run(d, pf, s, simulator.Options{Seed: 42, Probe: probe})
				if err != nil {
					fatal(err)
				}
				last = res
			})
		}
		var r benchio.Result
		overhead := 0.0
		for pair := 0; pair < 2; pair++ {
			rPlain := measurePlain()
			rProbed := measureProbed()
			if ratio := rProbed.NsPerOp / rPlain.NsPerOp; pair == 0 || ratio < overhead {
				overhead = ratio
				r = rProbed
			}
		}
		if replay.Digest(last) != replay.Digest(plain) {
			fatal(fmt.Errorf("cholbench: probe perturbed the P=%d/%s schedule", c.p, c.sched))
		}
		if !*smoke && c.p == 64 && overhead > 1.05 {
			fatal(fmt.Errorf("cholbench: sim-probed P=%d/%s overhead %.3fx over plain, want <= 1.05x", c.p, c.sched, overhead))
		}
		r = r.WithMetric("frames", float64(probe.Frames())).
			WithMetric("overhead_vs_plain", overhead)
		suite.Add(r)
		progress(r)
	}

	// Bound LPs/ILPs.
	for _, c := range boundCases {
		d := graph.Cholesky(c.p)
		flops := kernels.CholeskyFlops(c.p * platform.TileNB)
		var last bounds.Result
		r := benchio.Measure(fmt.Sprintf("bounds/%s/P=%d", c.name, c.p), c.iters, func() {
			b, err := c.run(d, pf)
			if err != nil {
				fatal(err)
			}
			last = b
		})
		if last.MakespanSec <= 0 {
			fatal(fmt.Errorf("cholbench: bound %s P=%d produced non-positive makespan", c.name, c.p))
		}
		r = r.WithMetric("bound_gflops", last.GFlops(flops))
		suite.Add(r)
		progress(r)
	}

	// Mixed-tile pipeline: the HeSP-style variable-tile-size DAG through the
	// event loop and the per-(kind, size) bound LPs. These pin the cost of the
	// size-parametrised cost model — the grouped ILP has more variables than
	// the per-kind one, and the simulator prices every task through
	// CostModel.Time instead of a flat table.
	mixedSimCases := []struct {
		p, fromK, factor int
		sched            string
		iters            int
	}{
		{p: 16, fromK: 8, factor: 2, sched: "dmdas", iters: 10},
		{p: 16, fromK: 8, factor: 2, sched: "partition:0.5", iters: 10},
		{p: 32, fromK: 24, factor: 2, sched: "dmdas", iters: 3},
	}
	mixedBoundCases := []boundCase{
		{p: 16, name: "area-int", iters: 10, run: bounds.AreaInt},
		{p: 16, name: "mixed-int", iters: 10, run: bounds.MixedInt},
	}
	if *smoke {
		mixedSimCases = mixedSimCases[:1]
		mixedSimCases[0].iters = 3
		mixedBoundCases = []boundCase{
			{p: 16, name: "mixed-int", iters: 3, run: bounds.MixedInt},
		}
	}
	pfm := platform.MirageExtended()
	pfm.Model = platform.ModelScaled // price sub-reference tiles by scaling
	for _, c := range mixedSimCases {
		d := graph.CholeskySplit(c.p, c.fromK, c.factor, pfm.DefaultNB())
		flops := kernels.CholeskyFlops(c.p * pfm.DefaultNB())
		var last *simulator.Result
		r := benchio.Measure(fmt.Sprintf("sim-mixed-tile/P=%d/%d@%d/%s", c.p, c.factor, c.fromK, c.sched), c.iters, func() {
			s, err := core.NewScheduler(c.sched)
			if err != nil {
				fatal(err)
			}
			res, err := simulator.Run(d, pfm, s, simulator.Options{Seed: 42})
			if err != nil {
				fatal(err)
			}
			last = res
		})
		if last.MakespanSec <= 0 {
			fatal(fmt.Errorf("cholbench: sim-mixed-tile P=%d/%s produced non-positive makespan", c.p, c.sched))
		}
		r = r.WithMetric("sim_gflops", last.GFlops(flops)).
			WithMetric("tasks_per_sec", float64(len(d.Tasks))/(r.NsPerOp/1e9))
		suite.Add(r)
		progress(r)
	}
	for _, c := range mixedBoundCases {
		d := graph.CholeskySplit(c.p, c.p/2, 2, pfm.DefaultNB())
		flops := kernels.CholeskyFlops(c.p * pfm.DefaultNB())
		var last bounds.Result
		r := benchio.Measure(fmt.Sprintf("bounds-mixed-tile/%s/P=%d", c.name, c.p), c.iters, func() {
			b, err := c.run(d, pfm)
			if err != nil {
				fatal(err)
			}
			last = b
		})
		if last.MakespanSec <= 0 {
			fatal(fmt.Errorf("cholbench: bound %s mixed P=%d produced non-positive makespan", c.name, c.p))
		}
		r = r.WithMetric("bound_gflops", last.GFlops(flops))
		suite.Add(r)
		progress(r)
	}

	// CP branch-and-bound: node throughput and incumbent quality at a fixed
	// budget across worker counts. The search is deterministic in the worker
	// count, so makespan_at_budget must agree across the workers=… variants
	// of a size — only nodes_per_sec may move. On a single-core host
	// (GOMAXPROCS=1) the workers only interleave, so expect flat throughput
	// there; the scaling story needs real cores.
	cpCases := []struct{ p, budget, workers, iters int }{
		{p: 8, budget: 20000, workers: 1, iters: 5},
		{p: 8, budget: 20000, workers: 4, iters: 5},
		{p: 8, budget: 20000, workers: 8, iters: 5},
		{p: 16, budget: 20000, workers: 1, iters: 3},
		{p: 16, budget: 20000, workers: 4, iters: 3},
		{p: 16, budget: 20000, workers: 8, iters: 3},
	}
	if *smoke {
		cpCases = []struct{ p, budget, workers, iters int }{
			{p: 8, budget: 5000, workers: 4, iters: 2},
		}
	}
	for _, c := range cpCases {
		d := graph.Cholesky(c.p)
		var last *cpsolve.Result
		r := benchio.Measure(fmt.Sprintf("cpsolve/P=%d/workers=%d", c.p, c.workers), c.iters, func() {
			res, err := cpsolve.Solve(d, pf, cpsolve.Options{NodeBudget: c.budget, Beam: 3, Workers: c.workers})
			if err != nil {
				fatal(err)
			}
			last = res
		})
		if last.Makespan <= 0 {
			fatal(fmt.Errorf("cholbench: cpsolve P=%d/workers=%d produced non-positive makespan", c.p, c.workers))
		}
		r = r.WithMetric("nodes_per_sec", float64(last.Nodes)/(r.NsPerOp/1e9)).
			WithMetric("makespan_at_budget", last.Makespan)
		suite.Add(r)
		progress(r)
	}

	// The experiments' search shape: CommAwareCP's comm-aware call at its
	// largest size — Mirage without communication as the CP model, one PCI
	// hop charged per class-crossing dependency, Beam 3, the default
	// 120000-node budget and a dmdas warm start simulated in the same model.
	{
		budget, iters := 120000, 3
		if *smoke {
			budget, iters = 10000, 1
		}
		model := platform.WithoutCommunication(platform.Mirage())
		target := platform.Mirage()
		hop := target.Bus.TransferTime(target.TileBytes)
		d := graph.Cholesky(10)
		warmRes, err := simulator.Run(d, model, sched.NewDMDAS(), simulator.Options{Seed: 42})
		if err != nil {
			fatal(err)
		}
		warm := &sched.StaticSchedule{Worker: warmRes.Worker, Start: warmRes.Start, EstMakespan: warmRes.MakespanSec}
		var last *cpsolve.Result
		r := benchio.Measure("cpsolve/P=10/comm-aware", iters, func() {
			res, err := cpsolve.Solve(d, model, cpsolve.Options{NodeBudget: budget, Beam: 3, CommHopSec: hop, WarmStart: warm})
			if err != nil {
				fatal(err)
			}
			last = res
		})
		if last.Makespan <= 0 {
			fatal(fmt.Errorf("cholbench: cpsolve P=10/comm-aware produced non-positive makespan"))
		}
		r = r.WithMetric("nodes_per_sec", float64(last.Nodes)/(r.NsPerOp/1e9)).
			WithMetric("makespan_at_budget", last.Makespan)
		suite.Add(r)
		progress(r)
	}

	// End-to-end sweep: sizes × schedulers through the parallel pool — the
	// paper's "many simulations in parallel" workflow in one number.
	sizes := []int{8, 16, 24}
	iters := 2
	if *smoke {
		sizes = []int{4, 8}
		iters = 1
	}
	scheds := []string{"dmda", "dmdas", "random"}
	r := benchio.Measure("sweep/end-to-end", iters, func() {
		type cfg struct {
			p     int
			sched string
		}
		var cfgs []cfg
		for _, p := range sizes {
			for _, s := range scheds {
				cfgs = append(cfgs, cfg{p, s})
			}
		}
		mk, err := sweep.Map(cfgs, 0, func(c cfg) (float64, error) {
			s, err := core.NewScheduler(c.sched)
			if err != nil {
				return 0, err
			}
			res, err := simulator.Run(graph.Cholesky(c.p), pf, s, simulator.Options{Seed: 42})
			if err != nil {
				return 0, err
			}
			return res.MakespanSec, nil
		})
		if err != nil {
			fatal(err)
		}
		for _, m := range mk {
			if m <= 0 {
				fatal(fmt.Errorf("cholbench: sweep produced non-positive makespan"))
			}
		}
	})
	suite.Add(r)
	progress(r)

	// Batched replay (PR7): multi-seed sweeps through internal/replay. Each
	// case's workload is N seeds of one configuration; serial loops the plain
	// event loop, batch=N routes through replay.Seeds — shared preparation,
	// pooled arenas, and (with the jitter model off and a seed-invariant
	// scheduler) one simulation answering all N seeds with clones. The
	// harness enforces the replay contract in passing: batched digests must
	// equal serial digests bit for bit.
	{
		const p = 16
		ctx := context.Background()
		d := graph.Cholesky(p)
		rpool := &replay.Pool{}
		seedsOf := func(n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = int64(i + 1)
			}
			return out
		}
		runSerial := func(seeds []int64, opt simulator.Options) []*simulator.Result {
			out := make([]*simulator.Result, len(seeds))
			for i, sd := range seeds {
				o := opt
				o.Seed = sd
				res, err := simulator.Run(d, pf, sched.NewDMDAS(), o)
				if err != nil {
					fatal(err)
				}
				out[i] = res
			}
			return out
		}
		runBatched := func(seeds []int64, opt simulator.Options) []*simulator.Result {
			rs, err := replay.Seeds(ctx, d, pf,
				func() sched.Scheduler { return sched.NewDMDAS() }, seeds, opt, 0, rpool, nil)
			if err != nil {
				fatal(err)
			}
			return rs
		}
		checkDigests := func(name string, got, want []*simulator.Result) {
			for i := range want {
				if replay.Digest(got[i]) != replay.Digest(want[i]) {
					fatal(fmt.Errorf("cholbench: %s seed %d diverged from serial", name, i))
				}
			}
		}

		nBig, iterSerial, iterBatch := 32, 3, 3
		if *smoke {
			nBig, iterSerial, iterBatch = 8, 2, 2
		}
		serialRef := runSerial(seedsOf(nBig), simulator.Options{})
		rSerial := benchio.Measure(fmt.Sprintf("sweep/multi-seed/serial/n=%d", nBig), iterSerial, func() {
			runSerial(seedsOf(nBig), simulator.Options{})
		})
		rSerial = rSerial.WithMetric("seeds_per_sec", float64(nBig)/(rSerial.NsPerOp/1e9))
		suite.Add(rSerial)
		progress(rSerial)

		batchSizes := []int{1, 8, nBig}
		if nBig == 8 { // smoke: n=8 is already the big case
			batchSizes = []int{1, nBig}
		}
		for _, n := range batchSizes {
			var got []*simulator.Result
			r := benchio.Measure(fmt.Sprintf("sweep/multi-seed/batch=%d", n), iterBatch, func() {
				got = runBatched(seedsOf(n), simulator.Options{})
			})
			checkDigests(fmt.Sprintf("batch=%d", n), got, serialRef[:n])
			r = r.WithMetric("seeds_per_sec", float64(n)/(r.NsPerOp/1e9))
			if n == nBig {
				speedup := rSerial.NsPerOp / r.NsPerOp
				r = r.WithMetric("speedup_vs_serial", speedup)
				// dmdas is seed-invariant and jitter is off, so the batch is
				// one simulation plus clones — 3x over serial is the floor
				// the suite pins (measured ~20x; see BENCH_PR7.json).
				if !*smoke && speedup < 3 {
					fatal(fmt.Errorf("cholbench: multi-seed batch=%d speedup %.2fx, want >= 3x", n, speedup))
				}
			}
			suite.Add(r)
			progress(r)
		}

		// With overhead+jitter on, every seed genuinely simulates; the batch
		// only buys shared preparation and arena reuse. The measured ratio is
		// documented, not gated.
		nJit := 8
		if *smoke {
			nJit = 4
		}
		jitOpt := simulator.Options{Overhead: true}
		jitRef := runSerial(seedsOf(nJit), jitOpt)
		rJitSerial := benchio.Measure(fmt.Sprintf("sweep/multi-seed-jitter/serial/n=%d", nJit), iterSerial, func() {
			runSerial(seedsOf(nJit), jitOpt)
		})
		suite.Add(rJitSerial)
		progress(rJitSerial)
		var gotJit []*simulator.Result
		rJit := benchio.Measure(fmt.Sprintf("sweep/multi-seed-jitter/batch=%d", nJit), iterBatch, func() {
			gotJit = runBatched(seedsOf(nJit), jitOpt)
		})
		checkDigests("jitter batch", gotJit, jitRef)
		rJit = rJit.WithMetric("speedup_vs_serial", rJitSerial.NsPerOp/rJit.NsPerOp)
		suite.Add(rJit)
		progress(rJit)

		// Event-level lane executor: a jitter sweep where every seed
		// genuinely simulates. run-level is the baseline (one full event
		// loop per seed on pooled arenas, fresh scheduler instances, one
		// generator seeding per task draw); lanes advances the whole batch
		// through one loop over SoA lane slabs with algebraic jitter rows
		// and a single shared scheduler Init. Digest equality is enforced
		// per seed; the speedup is gated.
		nLanes := 32
		if *smoke {
			nLanes = 8
		}
		laneSeeds := seedsOf(nLanes)
		laneOpt := simulator.Options{Overhead: true}
		mkLane := func() sched.Scheduler { return sched.NewDMDAS() }
		var laneRef []*simulator.Result
		rRunLevel := benchio.Measure(fmt.Sprintf("sweep/jitter-lanes/run-level/n=%d", nLanes), iterBatch, func() {
			rs, err := runLevelSeeds(ctx, d, pf, mkLane, laneSeeds, laneOpt, rpool)
			if err != nil {
				fatal(err)
			}
			laneRef = rs
		})
		rRunLevel = rRunLevel.WithMetric("seeds_per_sec", float64(nLanes)/(rRunLevel.NsPerOp/1e9))
		suite.Add(rRunLevel)
		progress(rRunLevel)

		var gotLanes []*simulator.Result
		rLanes := benchio.Measure(fmt.Sprintf("sweep/jitter-lanes/lanes/n=%d", nLanes), iterBatch, func() {
			rs, err := replay.Seeds(ctx, d, pf, mkLane, laneSeeds, laneOpt, 0, rpool, nil)
			if err != nil {
				fatal(err)
			}
			gotLanes = rs
		})
		checkDigests("jitter lanes", gotLanes, laneRef)
		laneSpeedup := rRunLevel.NsPerOp / rLanes.NsPerOp
		rLanes = rLanes.WithMetric("seeds_per_sec", float64(nLanes)/(rLanes.NsPerOp/1e9)).
			WithMetric("speedup_vs_run_level", laneSpeedup)
		if !*smoke && laneSpeedup < 2 {
			fatal(fmt.Errorf("cholbench: jitter-lanes n=%d speedup %.2fx over run-level, want >= 2x", nLanes, laneSpeedup))
		}
		suite.Add(rLanes)
		progress(rLanes)

		// Delta replay: sweeping a late split-point knob — BLAS-3 updates of
		// trailing panels k >= k0 pinned to the CPUs — against from-scratch
		// resimulation of every variant. The knob's affected tasks become
		// ready late, so the checkpointed prefix covers most of the run.
		ks := []int{10, 11, 12, 13, 14, 15}
		iterDelta := 3
		if *smoke {
			ks = []int{12, 14}
			iterDelta = 2
		}
		panelHint := func(k0 int) func() sched.Scheduler {
			return func() sched.Scheduler {
				return sched.NewDMDASWithHints(fmt.Sprintf("dmdas+panel(k0=%d)", k0),
					func(t *graph.Task) []int {
						if t.K >= k0 && (t.Kind == graph.TRSM || t.Kind == graph.SYRK || t.Kind == graph.GEMM) {
							return []int{0}
						}
						return nil
					})
			}
		}
		deltaOpt := simulator.Options{Seed: 42}
		scratchRef := make([]*simulator.Result, len(ks))
		rScratch := benchio.Measure("sweep/delta/scratch", iterDelta, func() {
			for i, k0 := range ks {
				res, err := simulator.Run(d, pf, panelHint(k0)(), deltaOpt)
				if err != nil {
					fatal(err)
				}
				scratchRef[i] = res
			}
		})
		rScratch = rScratch.WithMetric("variants", float64(len(ks)))
		suite.Add(rScratch)
		progress(rScratch)

		base, err := replay.Record(ctx, d, pf, sched.NewDMDAS(), deltaOpt, 0)
		if err != nil {
			fatal(err)
		}
		gotDelta := make([]*simulator.Result, len(ks))
		rDelta := benchio.Measure("sweep/delta/replay", iterDelta, func() {
			for i, k0 := range ks {
				res, err := base.Delta(ctx, panelHint(k0), deltaOpt, replay.PanelKnob(k0), rpool)
				if err != nil {
					fatal(err)
				}
				gotDelta[i] = res
			}
		})
		checkDigests("delta", gotDelta, scratchRef)
		rDelta = rDelta.WithMetric("variants", float64(len(ks))).
			WithMetric("speedup_vs_scratch", rScratch.NsPerOp/rDelta.NsPerOp)
		suite.Add(rDelta)
		progress(rDelta)
	}

	if *gobench {
		fmt.Print(benchio.FormatGoBench(suite.Results))
	}
	if *smoke {
		fmt.Printf("cholbench: smoke suite passed (%d benchmarks)\n", len(suite.Results))
		return
	}
	if err := suite.WriteFile(*out); err != nil {
		fatal(err)
	}
	for _, d := range suite.Compare() {
		if d.BaselineFound {
			fmt.Printf("%-28s ns/op %.2fx  allocs/op %.2fx of baseline\n", d.Name, d.NsRatio, d.AllocsRatio)
		}
	}
	fmt.Printf("cholbench: wrote %d benchmarks to %s\n", len(suite.Results), *out)
}

func progress(r benchio.Result) {
	fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %12.0f allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
}

// cpuProfileStop flushes an in-flight -cpuprofile; fatal calls it so a
// failing suite still leaves a usable profile (os.Exit skips defers).
var cpuProfileStop func()

// writeMemProfile dumps the heap profile at suite completion (after a GC,
// so it reflects retained memory, not transient garbage).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	if cpuProfileStop != nil {
		cpuProfileStop()
	}
	os.Exit(1)
}

// runLevelSeeds is the run-level baseline the lane executor is gated
// against: one full event loop per seed over a shared Prep, concurrent
// across GOMAXPROCS workers on pooled arenas, a fresh scheduler per seed.
func runLevelSeeds(ctx context.Context, d *graph.DAG, p *platform.Platform, mk func() sched.Scheduler,
	seeds []int64, opt simulator.Options, pool *replay.Pool) ([]*simulator.Result, error) {

	pp, err := simulator.Prepare(d, p)
	if err != nil {
		return nil, err
	}
	return sweep.MapContext(ctx, seeds, 0, func(seed int64) (*simulator.Result, error) {
		o := opt
		o.Seed = seed
		a := pool.Get()
		r, err := pp.Run(ctx, mk(), o, a)
		pool.Put(a)
		return r, err
	})
}
