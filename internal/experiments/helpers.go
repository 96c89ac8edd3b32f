package experiments

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/simulator"
	"repro/internal/stats"
)

// flops returns the factorization flop count for n tiles of size nb.
func flops(n, nb int) float64 { return kernels.CholeskyFlops(n * nb) }

// simGFlops runs one simulation and converts it to GFLOP/s.
func simGFlops(ctx context.Context, d *graph.DAG, p *platform.Platform, s sched.Scheduler,
	nb int, opt simulator.Options) (float64, error) {

	r, err := simulator.RunContext(ctx, d, p, s, opt)
	if err != nil {
		return 0, err
	}
	return r.GFlops(flops(d.P, nb)), nil
}

// repeated runs fn for cfg.Runs seeds and reports mean and σ — the paper's
// "average and standard deviation of 10 runs". Simulations use repeatedSim;
// this loop serves wall-clock measurements of real execution.
func repeated(cfg Config, fn func(seed int64) (float64, error)) (mean, sigma float64, err error) {
	var vals []float64
	for r := 0; r < cfg.Runs; r++ {
		if err := cfg.Ctx().Err(); err != nil {
			return 0, 0, fmt.Errorf("experiments: cancelled: %w", err)
		}
		v, err := fn(cfg.Seed + int64(r))
		if err != nil {
			return 0, 0, err
		}
		vals = append(vals, v)
	}
	return stats.Mean(vals), stats.StdDev(vals), nil
}

// repeatedSim is repeated specialized to simulations of one (DAG, platform,
// scheduler) configuration over cfg.Runs consecutive seeds: the seeds go
// through the replay engine — shared preparation, the lane executor, and a
// single simulation when the seed provably cannot matter — with per-seed
// Results bit-identical to a serial loop. mk must return a fresh instance
// per call.
func repeatedSim(cfg Config, d *graph.DAG, p *platform.Platform,
	mk func() sched.Scheduler, opt simulator.Options) (mean, sigma float64, err error) {

	seeds := make([]int64, cfg.Runs)
	for r := range seeds {
		seeds[r] = cfg.Seed + int64(r)
	}
	rs, err := replay.Seeds(cfg.Ctx(), d, p, mk, seeds, opt, 0, nil, cfg.Probe)
	if err != nil {
		return 0, 0, fmt.Errorf("experiments: %w", err)
	}
	vals := make([]float64, len(rs))
	for i, r := range rs {
		vals[i] = r.GFlops(flops(d.P, cfg.NB))
	}
	return stats.Mean(vals), stats.StdDev(vals), nil
}

// schedulerFactories returns fresh instances of the three headline StarPU
// policies per call (schedulers carry per-run state).
func schedulerFactories() []func() sched.Scheduler {
	return []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewRandom() },
		func() sched.Scheduler { return sched.NewDMDA() },
		func() sched.Scheduler { return sched.NewDMDAS() },
	}
}

// xs converts tile counts to float x-positions.
func xs(sizes []int) []float64 {
	out := make([]float64, len(sizes))
	for i, n := range sizes {
		out[i] = float64(n)
	}
	return out
}

// sweepSchedulers simulates the three paper policies over cfg.Sizes on a
// per-size platform and appends one series per policy (plus σ when
// repeating). overhead selects the actual-execution substitute mode.
func sweepSchedulers(cfg Config, tbl *stats.Table,
	platformFor func(n int) *platform.Platform, overhead bool) error {

	ctx := cfg.Ctx()
	for _, mk := range schedulerFactories() {
		name := mk().Name()
		var means, sigmas []float64
		for _, n := range cfg.Sizes {
			d := graph.Cholesky(n)
			p := platformFor(n)
			if overhead {
				m, s, err := repeatedSim(cfg, d, p, mk, simulator.Options{Overhead: true})
				if err != nil {
					return fmt.Errorf("%s n=%d: %w", name, n, err)
				}
				means = append(means, m)
				sigmas = append(sigmas, s)
			} else if name == "random" {
				// The paper: "results are deterministic for all schedulers
				// except random", which averages 10 seeds in simulation too.
				m, s, err := repeatedSim(cfg, d, p, mk, simulator.Options{})
				if err != nil {
					return fmt.Errorf("%s n=%d: %w", name, n, err)
				}
				means = append(means, m)
				sigmas = append(sigmas, s)
			} else {
				g, err := simGFlops(ctx, d, p, mk(), cfg.NB, simulator.Options{Seed: cfg.Seed})
				if err != nil {
					return fmt.Errorf("%s n=%d: %w", name, n, err)
				}
				means = append(means, g)
				sigmas = append(sigmas, 0)
			}
		}
		tbl.Add(name, means, sigmas)
	}
	return nil
}

// mixedBoundSeries appends the mixed-bound performance curve.
func mixedBoundSeries(cfg Config, tbl *stats.Table, platformFor func(n int) *platform.Platform) error {
	var vals []float64
	for _, n := range cfg.Sizes {
		d := graph.Cholesky(n)
		m, err := mixedBound(d, platformFor(n))
		if err != nil {
			return err
		}
		vals = append(vals, m.GFlops(flops(n, cfg.NB)))
	}
	tbl.Add("mixed bound", vals, nil)
	return nil
}
