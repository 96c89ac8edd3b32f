package experiments

import (
	"fmt"
	stdruntime "runtime"

	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/stats"
)

// Fig3Real runs Figure 3's homogeneous comparison as a *genuinely actual*
// execution: the real pure-Go kernels on real goroutine workers, with the
// three policy analogues (random-per-worker ≙ random, fifo ≙ dmda,
// priority ≙ dmdas), mean ± σ over cfg.Runs runs.
//
// Pure-Go kernels are 1–2 orders of magnitude slower than MKL, so the
// default configuration uses smaller tiles (cfg.RealNB) — absolute GFLOP/s
// are host-scale, only the *shape* (random ≪ fifo ≈ priority) maps to the
// paper. RealWorkers ≤ 0 means GOMAXPROCS workers.
func Fig3Real(cfg Config) (*stats.Table, error) {
	workers := cfg.RealWorkers
	if workers <= 0 {
		workers = stdruntime.GOMAXPROCS(0)
	}
	tbl := &stats.Table{
		Title: fmt.Sprintf("Figure 3 (real execution) — %d workers, nb=%d",
			workers, cfg.RealNB),
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.RealSizes),
	}
	policies := []runtime.Policy{runtime.RandomPerWorker, runtime.FIFO, runtime.Priority}
	names := []string{"random", "fifo (dmda-like)", "priority (dmdas-like)"}
	for pi, pol := range policies {
		var means, sigmas []float64
		for _, n := range cfg.RealSizes {
			f := kernels.CholeskyFlops(n * cfg.RealNB)
			m, s, err := repeated(cfg, func(seed int64) (float64, error) {
				a := matrix.RandSPD(n*cfg.RealNB, seed)
				tl, err := matrix.FromDense(a, cfg.RealNB)
				if err != nil {
					return 0, err
				}
				r, err := runtime.Factor(tl, runtime.Options{
					Workers: workers, Policy: pol, Seed: seed,
				})
				if err != nil {
					return 0, err
				}
				if res := matrix.CholeskyResidual(a, tl.ToDense()); res > 1e-10 {
					return 0, fmt.Errorf("fig3real: residual %g", res)
				}
				return platform.GFlops(f, r.Seconds), nil
			})
			if err != nil {
				return nil, err
			}
			means = append(means, m)
			sigmas = append(sigmas, s)
		}
		tbl.Add(names[pi], means, sigmas)
	}
	return tbl, nil
}

// CalibrationReport measures the real kernels on this host at tile size nb
// and reports the per-kernel GFLOP/s — the StarPU-calibration analogue used
// to sanity-check the platform model against real hardware.
func CalibrationReport(nb, reps int) *stats.Table {
	times := platform.Calibrate(nb, reps)
	tbl := &stats.Table{
		Title:       fmt.Sprintf("Host kernel calibration (nb=%d)", nb),
		XLabel:      "kernel",
		YLabel:      "GFLOP/s",
		Xs:          []float64{0, 1, 2, 3},
		Categorical: true,
		XNames:      []string{"POTRF", "TRSM", "SYRK", "GEMM"},
	}
	fl := []float64{
		kernels.PotrfFlops(nb), kernels.TrsmFlops(nb),
		kernels.SyrkFlops(nb), kernels.GemmFlops(nb),
	}
	kinds := []float64{
		times[0], times[1], times[2], times[3],
	}
	vals := make([]float64, 4)
	for i := range vals {
		vals[i] = platform.GFlops(fl[i], kinds[i])
	}
	tbl.Add("host", vals, nil)
	return tbl
}
