package experiments

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/stats"
)

// mixedBound computes the paper's headline bound (integral mixed bound).
func mixedBound(d *graph.DAG, p *platform.Platform) (bounds.Result, error) {
	return bounds.MixedInt(d, p)
}

// TableI reproduces Table I: GPU speedup over one CPU core per Cholesky
// kernel on the Mirage model (expected ≈2×, ≈11×, ≈26×, ≈29×).
func TableI(cfg Config) *stats.Table {
	p := platform.Mirage()
	tbl := &stats.Table{
		Title:       "Table I — GPU relative performance per kernel",
		XLabel:      "kernel",
		YLabel:      "speedup",
		Xs:          []float64{0, 1, 2, 3},
		Categorical: true,
		XNames:      []string{"POTRF", "TRSM", "SYRK", "GEMM"},
	}
	sp := p.SpeedupTable(0, 1, graph.CholeskyKinds)
	tbl.Add("gpu/cpu", []float64{
		sp[graph.POTRF], sp[graph.TRSM], sp[graph.SYRK], sp[graph.GEMM],
	}, nil)
	return tbl
}

// TableK reproduces the acceleration factors of Section V-C2: the
// task-count-weighted mean GPU speedup K(n) defining the related platform
// (paper values: 17.30, 22.30, 24.30, 25.38, 26.06, 26.52, 26.86, 27.11 for
// n = 4, 8, ..., 32).
func TableK(cfg Config) *stats.Table {
	p := platform.Mirage()
	tbl := &stats.Table{
		Title:  "Acceleration factors K(n) (Section V-C2)",
		XLabel: "tiles",
		YLabel: "K",
		Xs:     xs(cfg.Sizes),
	}
	var ks []float64
	for _, n := range cfg.Sizes {
		ks = append(ks, p.AccelerationFactor(graph.Cholesky(n), 0, 1))
	}
	tbl.Add("K", ks, nil)
	return tbl
}

// Fig2 reproduces Figure 2: the four theoretical performance upper bounds
// (critical path, area, mixed, GEMM peak) on the Mirage model across matrix
// sizes. Expected shape: mixed is the tightest everywhere; critical path
// binds only at the smallest sizes; all converge toward GEMM peak at n=32.
func Fig2(cfg Config) (*stats.Table, error) {
	p := platform.Mirage()
	tbl := &stats.Table{
		Title:  "Figure 2 — heterogeneous theoretical performance upper bounds",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	var cp, area, mixed, peak []float64
	for _, n := range cfg.Sizes {
		all, err := bounds.Compute(n, cfg.NB, p)
		if err != nil {
			return nil, fmt.Errorf("fig2 n=%d: %w", n, err)
		}
		f := flops(n, cfg.NB)
		cp = append(cp, all.CriticalPath.GFlops(f))
		area = append(area, all.Area.GFlops(f))
		mixed = append(mixed, all.Mixed.GFlops(f))
		peak = append(peak, all.GemmPeak.GFlops(f))
	}
	tbl.Add("critical path", cp, nil)
	tbl.Add("area bound", area, nil)
	tbl.Add("mixed bound", mixed, nil)
	tbl.Add("gemm peak", peak, nil)
	return tbl, nil
}

// Fig3 reproduces Figure 3 (homogeneous actual performance) in the
// substituted actual mode: the 9-CPU Mirage model with per-task runtime
// overhead and jitter, mean ± σ over cfg.Runs runs. Expected shape: random
// clearly below dmda/dmdas; dmdas slightly below dmda at small sizes.
func Fig3(cfg Config) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Figure 3 — homogeneous actual performance (overhead-model substitute)",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	pf := func(int) *platform.Platform { return platform.Homogeneous(9) }
	if err := sweepSchedulers(cfg, tbl, pf, true); err != nil {
		return nil, err
	}
	return tbl, nil
}

// Fig4 reproduces Figure 4: homogeneous simulated performance plus the mixed
// bound. Identical to Fig3 minus the runtime overhead (the paper's point:
// "very similar to the original execution, with a slight increase").
func Fig4(cfg Config) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Figure 4 — homogeneous simulated performance",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	pf := func(int) *platform.Platform { return platform.Homogeneous(9) }
	if err := sweepSchedulers(cfg, tbl, pf, false); err != nil {
		return nil, err
	}
	if err := mixedBoundSeries(cfg, tbl, pf); err != nil {
		return nil, err
	}
	return tbl, nil
}

// relatedPlatform builds the per-size heterogeneous related platform: GPU
// speed = CPU speed × K(n), communications removed for bound comparison.
func relatedPlatform(n int) *platform.Platform {
	base := platform.Mirage()
	k := base.AccelerationFactor(graph.Cholesky(n), 0, 1)
	return platform.WithoutCommunication(platform.Related(base, k))
}

// unrelatedSimPlatform is the Mirage model with communications removed —
// the configuration of Figures 7 and 10 ("to be fair in the comparison").
func unrelatedSimPlatform(n int) *platform.Platform {
	return platform.WithoutCommunication(platform.Mirage())
}

// Fig5 reproduces Figure 5: heterogeneous *related* simulated performance
// with the mixed bound. Expected shape: random very poor; dmda ≈ dmdas well
// below the bound at small/medium sizes.
func Fig5(cfg Config) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Figure 5 — heterogeneous related simulated performance",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	if err := sweepSchedulers(cfg, tbl, relatedPlatform, false); err != nil {
		return nil, err
	}
	if err := mixedBoundSeries(cfg, tbl, relatedPlatform); err != nil {
		return nil, err
	}
	return tbl, nil
}

// Fig6 reproduces Figure 6 (heterogeneous unrelated actual performance) in
// the substituted actual mode: full Mirage model with PCI communications,
// runtime overhead and jitter, mean ± σ.
func Fig6(cfg Config) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Figure 6 — heterogeneous unrelated actual performance (overhead-model substitute)",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	pf := func(int) *platform.Platform { return platform.Mirage() }
	if err := sweepSchedulers(cfg, tbl, pf, true); err != nil {
		return nil, err
	}
	return tbl, nil
}

// Fig7 reproduces Figure 7: heterogeneous unrelated simulated performance
// (communications removed) with the mixed bound. This is the central gap
// figure of the paper.
func Fig7(cfg Config) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Figure 7 — heterogeneous unrelated simulated performance",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	if err := sweepSchedulers(cfg, tbl, unrelatedSimPlatform, false); err != nil {
		return nil, err
	}
	if err := mixedBoundSeries(cfg, tbl, unrelatedSimPlatform); err != nil {
		return nil, err
	}
	return tbl, nil
}

// Fig8 reproduces Figure 8: the related-case curves of Figure 5 rescaled so
// that the related mixed bound coincides with the unrelated one, making the
// two cases directly comparable ("unrelated speed-ups make the problem
// harder").
func Fig8(cfg Config) (*stats.Table, error) {
	rel, err := Fig5(cfg)
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title:  "Figure 8 — heterogeneous related simulated, scaled to the unrelated mixed bound",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	// Per-size scale factor: unrelated mixed / related mixed. Figure 5
	// already solved the related bound; only the unrelated one is new.
	var related []float64
	for _, s := range rel.Series {
		if s.Name == "mixed bound" {
			related = s.Values
		}
	}
	factors := make([]float64, len(cfg.Sizes))
	for i, n := range cfg.Sizes {
		mu, err := mixedBound(graph.Cholesky(n), unrelatedSimPlatform(n))
		if err != nil {
			return nil, err
		}
		factors[i] = mu.GFlops(flops(n, cfg.NB)) / related[i]
	}
	for _, s := range rel.Series {
		scaled := make([]float64, len(s.Values))
		for i, v := range s.Values {
			scaled[i] = v * factors[i]
		}
		tbl.Add(s.Name, scaled, nil)
	}
	return tbl, nil
}

// GemmPeakGFlops reports the model's aggregate GEMM peak (the 960 GFLOP/s
// asymptote of Figure 2).
func GemmPeakGFlops(cfg Config) float64 {
	return platform.Mirage().GemmPeakGFlops(kernels.GemmFlops(cfg.NB))
}
