package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/platform"
	"repro/internal/simulator"
)

// coldOutcome is what one cold simulation must reproduce exactly on every
// pass and in its traced decomposition.
type coldOutcome struct {
	makespan  float64
	transfers int
	evictions int
	tasks     int
}

// checkBound enforces the paper's ordering: no schedule beats the mixed
// bound, i.e. bound makespan ≤ simulated makespan.
func checkBound(boundMakespan, makespan float64) error {
	if boundMakespan > makespan*(1+1e-9) {
		return fmt.Errorf("mixed bound %.9g s exceeds simulated makespan %.9g s", boundMakespan, makespan)
	}
	return nil
}

// runColdSim makes sequential cold core.Simulate calls, one caller, as
// cholsim does: every call builds its DAG, preparation and scheduler state
// from scratch. In a traced run every pass makes each call untraced and
// then repeats it as the chain of public calls it is built from, timing
// each link.
func runColdSim(e env) (*run, error) {
	type state struct {
		p   *platform.Platform
		ops []simOp
	}
	st, setupS, err := timeSetup(setupReps, func() (state, error) {
		p, err := core.NewPlatform("mirage")
		if err != nil {
			return state{}, err
		}
		ops := coldSimOps(e.seed)
		for _, op := range ops {
			if _, err := core.NewScheduler(op.Scheduler); err != nil {
				return state{}, err
			}
		}
		// One small call pages in the simulator and LP code before timing.
		s, _ := core.NewScheduler("dmdas")
		_, err = core.Simulate(e.ctx, 24, p, s, simulator.Options{Seed: 1})
		return state{p: p, ops: ops}, err
	}, nil)
	if err != nil {
		return nil, err
	}
	res := &run{values: map[string]float64{"setup_s": setupS}, facts: map[string]any{"ops_per_pass": len(st.ops)}}
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	want := make([]*coldOutcome, len(st.ops))
	fail := func(op simOp, err error) {
		res.failed++
		fmt.Fprintf(os.Stderr, "perfbench: cold-sim P=%d %s: %v\n", op.Tiles, op.Scheduler, err)
	}
	// check compares an outcome with the first one seen for op i.
	check := func(i int, got coldOutcome) error {
		if want[i] == nil {
			want[i] = &got
			return nil
		}
		if *want[i] != got {
			return fmt.Errorf("outcome %+v differs from earlier %+v", got, *want[i])
		}
		return nil
	}
	// Pass times are sums of call times: the settling between calls is not
	// part of the work.
	var lat, tracedWall, untracedCalls, passRSS []float64
	var tasks, transfers, evictions, makespanSum float64
	for pass := 0; pass < e.passes; pass++ {
		if tr != nil {
			tr.pass++
		}
		var passTraced, passCalls float64
		settle()
		resetPeakRSS()
		for i, op := range st.ops {
			res.attempted++
			s, _ := core.NewScheduler(op.Scheduler)
			settle()
			t0 := time.Now()
			rep, err := core.Simulate(e.ctx, op.Tiles, st.p, s, simulator.Options{Seed: op.Seed})
			callS := time.Since(t0).Seconds()
			passCalls += callS
			if err == nil {
				// The report carries the bound as GFLOP/s over the same flops.
				err = checkBound(rep.MakespanSec*rep.GFlops/rep.BoundGFlops, rep.MakespanSec)
			}
			if err == nil {
				err = check(i, coldOutcome{rep.MakespanSec, rep.Result.TransferCount, rep.Result.Evictions, len(rep.Result.Start)})
			}
			if err != nil {
				fail(op, err)
				continue
			}
			if tr == nil {
				lat = append(lat, callS)
				continue
			}
			settle()
			got, chainS, err := tracedChain(e.ctx, tr, i, op, st.p)
			passTraced += chainS
			if err == nil {
				err = check(i, got)
			}
			if err != nil {
				fail(op, err)
				continue
			}
			tasks += float64(got.tasks)
			transfers += float64(got.transfers)
			evictions += float64(got.evictions)
			makespanSum += got.makespan
		}
		untracedCalls = append(untracedCalls, passCalls)
		tracedWall = append(tracedWall, passTraced)
		passRSS = append(passRSS, peakRSSMB())
	}
	if tr != nil {
		// Each traced pass attempts every op twice: the call and its chain.
		res.attempted += e.passes * len(st.ops)
		n := float64(tr.pass)
		for _, name := range []string{"graph.build_s", "simulator.prepare_s", "simulator.run_s",
			"simulator.validate_s", "bounds.mixed_int_s", "graph.validate_s", "sched.init_s"} {
			res.values[name] = tr.medianPass(name)
		}
		res.values["simulator.tasks"] = tasks / n
		res.values["simulator.transfers"] = transfers / n
		res.values["simulator.evictions"] = evictions / n
		res.values["simulator.makespan_sum_s"] = makespanSum / n
		res.values["simulator.ns_per_task"] = res.values["simulator.run_s"] / (tasks / n) * 1e9
		res.values["sim_tasks_per_s"] = (tasks / n) / median(untracedCalls)
		chain := 0.0
		for _, name := range chainSpans {
			chain += res.values[name]
		}
		res.values["trace.coverage"] = chain / median(untracedCalls)
		res.values["trace.overhead"] = median(tracedWall) / median(untracedCalls)
		if err := tr.write(traceDir, fmt.Sprintf("cold-sim-seed%d.json", e.seed), res.facts); err != nil {
			return nil, err
		}
		return res, nil
	}
	res.values["peak_rss_mb"] = median(passRSS)
	res.values["wall_s"] = median(untracedCalls)
	res.values["ok_frac"] = 1 - frac(float64(res.failed), float64(res.attempted))
	latencyMetrics(res, lat)
	return res, nil
}

// chainSpans are the public calls core.Simulate is made of, in call order.
var chainSpans = []string{"graph.build_s", "simulator.prepare_s", "simulator.run_s",
	"simulator.validate_s", "bounds.mixed_int_s"}

// tracedChain repeats one cold simulation as its chain of public calls with
// identical inputs, timing each, and returns the chain's wall time. It then
// times DAG validation and scheduler Init on fresh DAGs, so neither sees
// facts the other cached; those probes are not part of the chain.
func tracedChain(ctx context.Context, tr *tracer, i int, op simOp, p *platform.Platform) (coldOutcome, float64, error) {
	var out coldOutcome
	var d *graph.DAG
	var pp *simulator.Prep
	var r *simulator.Result
	var m bounds.Result
	var err error
	s, _ := core.NewScheduler(op.Scheduler)
	t0 := time.Now()
	tr.timed(i, "graph.build_s", "op", func() { d = graph.Cholesky(op.Tiles) })
	tr.timed(i, "simulator.prepare_s", "op", func() { pp, err = simulator.Prepare(d, p) })
	if err != nil {
		return out, 0, err
	}
	tr.timed(i, "simulator.run_s", "op", func() { r, err = pp.Run(ctx, s, simulator.Options{Seed: op.Seed}, nil) })
	if err != nil {
		return out, 0, err
	}
	tr.timed(i, "simulator.validate_s", "op", func() { err = simulator.Validate(d, p, r) })
	if err != nil {
		return out, 0, err
	}
	tr.timed(i, "bounds.mixed_int_s", "op", func() { m, err = bounds.MixedInt(d, p) })
	chainS := time.Since(t0).Seconds()
	if err != nil {
		return out, 0, err
	}
	if err := checkBound(m.MakespanSec, r.MakespanSec); err != nil {
		return out, 0, err
	}
	fresh := graph.Cholesky(op.Tiles)
	tr.timed(i, "graph.validate_s", "probe", func() { err = fresh.Validate() })
	if err != nil {
		return out, 0, err
	}
	fresh = graph.Cholesky(op.Tiles)
	s2, _ := core.NewScheduler(op.Scheduler)
	tr.timed(i, "sched.init_s", "probe", func() { s2.Init(fresh, p, op.Seed) })
	return coldOutcome{r.MakespanSec, r.TransferCount, r.Evictions, len(d.Tasks)}, chainS, nil
}
