package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cpsolve"
	"repro/internal/graph"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simulator"
	"repro/internal/stats"
)

// Fig9 renders Figure 9: the tiles whose TRSM kernels are forced onto CPUs
// for a p-tile matrix with distance threshold k ('C' = forced to CPU,
// 'g' = left to the dynamic scheduler, '·' = not a TRSM tile).
func Fig9(p, k int) string {
	hint := sched.TrsmTriangleOnCPU(k)
	var b strings.Builder
	fmt.Fprintf(&b, "# Figure 9 — TRSMs forced on CPUs (p=%d, k=%d)\n", p, k)
	for i := 0; i < p; i++ {
		for j := 0; j <= i; j++ {
			c := byte('.')
			if j < i { // tile (i, j), j<i carries TRSM_i_j
				if hint(&graph.Task{Kind: graph.TRSM, I: i, K: j}) != nil {
					c = 'C'
				} else {
					c = 'g'
				}
			}
			b.WriteByte(c)
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	b.WriteString("C = TRSM forced on CPU, g = dynamic, . = non-TRSM tile\n")
	return b.String()
}

// BestTriangleK sweeps the TRSM-distance threshold and returns the best k
// and its simulated GFLOP/s for a given size (the paper's "best obtained
// performance among all possible values of k"; it reports k ≈ 6–8 optimal).
// k = 0 in the result denotes "no forcing" (plain dmdas), which is included
// as the degenerate end of the sweep — for very small matrices every real k
// hurts, and a practitioner would keep the dynamic schedule.
func BestTriangleK(cfg Config, n int, p *platform.Platform, overhead bool) (int, float64, error) {
	ks := cfg.TriangleKs
	if ks == nil {
		for k := 1; k < n; k++ {
			ks = append(ks, k)
		}
	}
	d := graph.Cholesky(n)
	eval := func(mk func() sched.Scheduler) (float64, error) {
		if overhead {
			g, _, err := repeatedSim(cfg, d, p, mk, simulator.Options{Overhead: true})
			return g, err
		}
		return simGFlops(cfg.Ctx(), d, p, mk(), cfg.NB, simulator.Options{Seed: cfg.Seed})
	}
	bestK, bestG := 0, math.Inf(-1)
	if g, err := eval(func() sched.Scheduler { return sched.NewDMDAS() }); err != nil {
		return 0, 0, err
	} else {
		bestG = g
	}
	for _, k := range ks {
		if k < 1 || k >= n {
			continue
		}
		g, err := eval(func() sched.Scheduler { return sched.NewTriangleTRSM(k) })
		if err != nil {
			return 0, 0, err
		}
		if g > bestG {
			bestK, bestG = k, g
		}
	}
	return bestK, bestG, nil
}

// Fig10 reproduces Figure 10: heterogeneous unrelated simulated performance
// with static knowledge — dmdas, the mixed bound, the CP solution (model
// value), the CP schedule injected in simulation, and the best
// triangle-TRSM hint. CP series are computed for n ≤ cfg.CPMaxTiles (the
// paper's CP also only produced solutions "for reasonable matrix sizes").
func Fig10(cfg Config) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Figure 10 — heterogeneous unrelated simulated performance with static knowledge",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	var dmdas, mixed, cpVal, cpSim, tri []float64
	for _, n := range cfg.Sizes {
		d := graph.Cholesky(n)
		p := unrelatedSimPlatform(n)
		f := flops(n, cfg.NB)

		dmRes, err := simulator.RunContext(cfg.Ctx(), d, p, sched.NewDMDAS(), simulator.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		dmdas = append(dmdas, dmRes.GFlops(f))

		m, err := mixedBound(d, p)
		if err != nil {
			return nil, err
		}
		mixed = append(mixed, m.GFlops(f))

		if n <= cfg.CPMaxTiles {
			// Warm-start the CP search from the dmdas schedule itself (the
			// paper warm-starts from its HEFT-like heuristic), so the CP
			// line never regresses below the dynamic scheduler.
			warm := &sched.StaticSchedule{
				Worker: dmRes.Worker, Start: dmRes.Start, EstMakespan: dmRes.MakespanSec,
			}
			r, err := cpsolve.SolveContext(cfg.Ctx(), d, p, cpsolve.Options{
				NodeBudget: cfg.CPBudget, Beam: 3, WarmStart: warm,
			})
			if err != nil {
				return nil, fmt.Errorf("fig10 CP n=%d: %w", n, err)
			}
			cpVal = append(cpVal, platform.GFlops(f, r.Makespan))
			sim, err := simulator.RunContext(cfg.Ctx(), d, p, r.Schedule.Scheduler("cp-inject"), simulator.Options{})
			if err != nil {
				return nil, err
			}
			cpSim = append(cpSim, sim.GFlops(f))
		} else {
			cpVal = append(cpVal, math.NaN())
			cpSim = append(cpSim, math.NaN())
		}

		_, bg, err := BestTriangleK(cfg, n, p, false)
		if err != nil {
			return nil, err
		}
		tri = append(tri, bg)
	}
	tbl.Add("dmdas", dmdas, nil)
	tbl.Add("mixed bound", mixed, nil)
	tbl.Add("CP solution", cpVal, nil)
	tbl.Add("CP in simulation", cpSim, nil)
	tbl.Add("triangle trsms on cpu", tri, nil)
	return tbl, nil
}

// Fig11 reproduces Figure 11 (heterogeneous actual performance with static
// knowledge) in the substituted actual mode: Mirage with communications,
// overhead and jitter; dmdas vs the best triangle-TRSM hint, mean ± σ.
func Fig11(cfg Config) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Figure 11 — heterogeneous actual performance with static knowledge (overhead-model substitute)",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	var dm, dmSig, tri []float64
	for _, n := range cfg.Sizes {
		d := graph.Cholesky(n)
		p := platform.Mirage()
		m, s, err := repeatedSim(cfg, d, p,
			func() sched.Scheduler { return sched.NewDMDAS() },
			simulator.Options{Overhead: true})
		if err != nil {
			return nil, err
		}
		dm = append(dm, m)
		dmSig = append(dmSig, s)
		_, bg, err := BestTriangleK(cfg, n, p, true)
		if err != nil {
			return nil, err
		}
		tri = append(tri, bg)
	}
	tbl.Add("dmdas", dm, dmSig)
	tbl.Add("triangle trsms on cpu", tri, nil)
	return tbl, nil
}

// MappingOnly reproduces the Section VI-B experiment: injecting only the
// CP solution's CPU/GPU mapping (not its ordering) into the dynamic
// scheduler, versus full injection and plain dmdas, on small sizes.
func MappingOnly(cfg Config) (*stats.Table, error) {
	var sizes []int
	for _, n := range cfg.Sizes {
		if n <= cfg.CPMaxTiles {
			sizes = append(sizes, n)
		}
	}
	tbl := &stats.Table{
		Title:  "Section VI-B — CP mapping-only injection vs full injection",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(sizes),
	}
	var dm, full, mapOnly, orderOnly []float64
	for _, n := range sizes {
		d := graph.Cholesky(n)
		p := unrelatedSimPlatform(n)
		f := flops(n, cfg.NB)
		dmRes, err := simulator.RunContext(cfg.Ctx(), d, p, sched.NewDMDAS(), simulator.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		dm = append(dm, dmRes.GFlops(f))
		warm := &sched.StaticSchedule{
			Worker: dmRes.Worker, Start: dmRes.Start, EstMakespan: dmRes.MakespanSec,
		}
		r, err := cpsolve.SolveContext(cfg.Ctx(), d, p, cpsolve.Options{
			NodeBudget: cfg.CPBudget, Beam: 3, WarmStart: warm,
		})
		if err != nil {
			return nil, err
		}
		sim, err := simulator.RunContext(cfg.Ctx(), d, p, r.Schedule.Scheduler("cp-full"), simulator.Options{})
		if err != nil {
			return nil, err
		}
		full = append(full, sim.GFlops(f))
		mo, err := simGFlops(cfg.Ctx(), d, p, r.Schedule.MappingScheduler(p), cfg.NB, simulator.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		mapOnly = append(mapOnly, mo)
		oo, err := simGFlops(cfg.Ctx(), d, p, r.Schedule.OrderScheduler(), cfg.NB, simulator.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		orderOnly = append(orderOnly, oo)
	}
	tbl.Add("dmdas", dm, nil)
	tbl.Add("CP full injection", full, nil)
	tbl.Add("CP mapping only", mapOnly, nil)
	tbl.Add("CP order only", orderOnly, nil)
	return tbl, nil
}

// GemmSyrkHint reproduces the Section V-C3 observation that forcing GEMM and
// SYRK onto GPUs improves performance only slightly (dmda/dmdas already put
// most of them there).
func GemmSyrkHint(cfg Config) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Section V-C3 — forcing GEMM+SYRK on GPUs",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	var plain, hinted []float64
	for _, n := range cfg.Sizes {
		d := graph.Cholesky(n)
		p := unrelatedSimPlatform(n)
		g, err := simGFlops(cfg.Ctx(), d, p, sched.NewDMDAS(), cfg.NB, simulator.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		plain = append(plain, g)
		h, err := simGFlops(cfg.Ctx(), d, p,
			sched.NewDMDASWithHints("dmdas+gemm-syrk-gpu", sched.GemmSyrkOnGPU()),
			cfg.NB, simulator.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		hinted = append(hinted, h)
	}
	tbl.Add("dmdas", plain, nil)
	tbl.Add("dmdas+gemm/syrk on gpu", hinted, nil)
	return tbl, nil
}

// TransferAblation quantifies dmda's data awareness: dmda vs dmda-nocomm on
// the full Mirage model (communications enabled) — a DESIGN.md §7 ablation.
func TransferAblation(cfg Config) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Ablation — transfer-aware dmda vs transfer-blind dmda (PCI model on)",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	var aware, blind []float64
	for _, n := range cfg.Sizes {
		d := graph.Cholesky(n)
		p := platform.Mirage()
		a, err := simGFlops(cfg.Ctx(), d, p, sched.NewDMDA(), cfg.NB, simulator.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		aware = append(aware, a)
		b, err := simGFlops(cfg.Ctx(), d, p, sched.NewDMDANoComm(), cfg.NB, simulator.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		blind = append(blind, b)
	}
	tbl.Add("dmda", aware, nil)
	tbl.Add("dmda-nocomm", blind, nil)
	return tbl, nil
}
