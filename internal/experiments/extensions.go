package experiments

import (
	"fmt"
	stdruntime "runtime"

	"repro/internal/autotune"
	"repro/internal/bounds"
	"repro/internal/cpsolve"
	"repro/internal/distributed"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/simulator"
	"repro/internal/stats"
)

// Extension experiments — beyond the paper's figures, following its
// conclusion ("apply the same methodology to other dense linear algebra
// algorithms") and its stated ongoing work (a partially data-aware CP).

// algoFlops returns the factorization flop total for the algorithm.
func algoFlops(alg string, n, nb int) float64 {
	switch alg {
	case "lu":
		return kernels.LUFlops(n * nb)
	case "qr":
		return kernels.QRFlops(n * nb)
	default:
		return kernels.CholeskyFlops(n * nb)
	}
}

// OtherFactorizations runs the paper's methodology on LU and QR: dmdas
// performance vs the generalized mixed bound on the extended Mirage model
// (communication removed, as in Figures 7/10).
func OtherFactorizations(cfg Config) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Extension — LU and QR under the paper's methodology (dmdas vs mixed bound)",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	p := platform.WithoutCommunication(platform.MirageExtended())
	builders := map[string]func(int) *graph.DAG{"lu": graph.LU, "qr": graph.QR}
	for _, alg := range []string{"lu", "qr"} {
		var perf, bound []float64
		for _, n := range cfg.Sizes {
			d := builders[alg](n)
			f := algoFlops(alg, n, cfg.NB)
			r, err := simulator.RunContext(cfg.Ctx(), d, p, sched.NewDMDAS(), simulator.Options{Seed: cfg.Seed})
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", alg, n, err)
			}
			perf = append(perf, r.GFlops(f))
			m, err := bounds.MixedInt(d, p)
			if err != nil {
				return nil, err
			}
			bound = append(bound, m.GFlops(f))
		}
		tbl.Add(alg+" dmdas", perf, nil)
		tbl.Add(alg+" mixed bound", bound, nil)
	}
	return tbl, nil
}

// CommAwareCP evaluates the data-aware CP extension: schedules optimized
// with and without the one-hop communication penalty, both injected into
// the *communication-enabled* simulator — the setting where the paper found
// oblivious CP schedules to "add lots of idle time on resources during data
// transfer".
func CommAwareCP(cfg Config) (*stats.Table, error) {
	var sizes []int
	for _, n := range cfg.Sizes {
		if n <= cfg.CPMaxTiles {
			sizes = append(sizes, n)
		}
	}
	tbl := &stats.Table{
		Title:  "Extension — communication-aware CP vs oblivious CP, injected with PCI model on",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(sizes),
	}
	model := platform.WithoutCommunication(platform.Mirage()) // CP's internal model
	target := platform.Mirage()                               // evaluation platform
	hop := target.Bus.TransferTime(target.TileBytes)

	var dm, obl, aware []float64
	for _, n := range sizes {
		d := graph.Cholesky(n)
		f := flops(n, cfg.NB)

		g, err := simGFlops(cfg.Ctx(), d, target, sched.NewDMDAS(), cfg.NB, simulator.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		dm = append(dm, g)

		// Warm start from the dmdas schedule in the CP's own (no-comm) model.
		warmRes, err := simulator.RunContext(cfg.Ctx(), d, model, sched.NewDMDAS(), simulator.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		warm := &sched.StaticSchedule{
			Worker: warmRes.Worker, Start: warmRes.Start, EstMakespan: warmRes.MakespanSec,
		}

		ro, err := cpsolve.SolveContext(cfg.Ctx(), d, model, cpsolve.Options{
			NodeBudget: cfg.CPBudget, Beam: 3, WarmStart: warm,
		})
		if err != nil {
			return nil, err
		}
		so, err := simulator.RunContext(cfg.Ctx(), d, target, ro.Schedule.Scheduler("cp-oblivious"), simulator.Options{})
		if err != nil {
			return nil, err
		}
		obl = append(obl, so.GFlops(f))

		ra, err := cpsolve.SolveContext(cfg.Ctx(), d, model, cpsolve.Options{
			NodeBudget: cfg.CPBudget, Beam: 3, CommHopSec: hop, WarmStart: warm,
		})
		if err != nil {
			return nil, err
		}
		sa, err := simulator.RunContext(cfg.Ctx(), d, target, ra.Schedule.Scheduler("cp-aware"), simulator.Options{})
		if err != nil {
			return nil, err
		}
		aware = append(aware, sa.GFlops(f))
	}
	tbl.Add("dmdas", dm, nil)
	tbl.Add("CP oblivious", obl, nil)
	tbl.Add("CP comm-aware", aware, nil)
	return tbl, nil
}

// WorkStealing quantifies pull-based load balancing layered on the push
// policies (StarPU's ws family): random with and without stealing vs dmda,
// on the no-communication Mirage model.
func WorkStealing(cfg Config) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Ablation — work stealing on top of the random policy",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	p := platform.WithoutCommunication(platform.Mirage())
	variants := []struct {
		name  string
		mk    func() sched.Scheduler
		steal bool
	}{
		{"random", sched.NewRandom, false},
		{"random+ws", sched.NewRandom, true},
		{"dmda", sched.NewDMDA, false},
	}
	for _, v := range variants {
		var vals, sigs []float64
		for _, n := range cfg.Sizes {
			d := graph.Cholesky(n)
			m, s, err := repeatedSim(cfg, d, p, v.mk,
				simulator.Options{WorkStealing: v.steal})
			if err != nil {
				return nil, err
			}
			vals = append(vals, m)
			sigs = append(sigs, s)
		}
		tbl.Add(v.name, vals, sigs)
	}
	return tbl, nil
}

// MemorySweep measures the impact of device memory capacity: dmda on Mirage
// with the per-GPU memory restricted to a fraction of the working set
// (tiles of 7.37 MB; a 12×12-tile matrix has 78 distinct tiles). The paper's
// machine has 6 GB GPUs (never binding); this ablation shows the cliff a
// smaller device hits and the write-back traffic behind it.
func MemorySweep(cfg Config, n int, capacities []int) (*stats.Table, error) {
	if n <= 0 {
		n = 16
	}
	if capacities == nil {
		capacities = []int{8, 16, 32, 64, 0}
	}
	var xsv []float64
	for _, c := range capacities {
		xsv = append(xsv, float64(c))
	}
	tbl := &stats.Table{
		Title:  fmt.Sprintf("Ablation — GPU memory capacity sweep (n=%d tiles; 0 = unlimited)", n),
		XLabel: "capacity(tiles)",
		YLabel: "GFLOP/s",
		Xs:     xsv,
	}
	d := graph.Cholesky(n)
	f := flops(n, cfg.NB)
	var perf, evics, wbs []float64
	for _, c := range capacities {
		p := platform.Mirage()
		if c > 0 {
			p.Classes[1].MemoryBytes = float64(c) * p.TileBytes
		}
		r, err := simulator.RunContext(cfg.Ctx(), d, p, sched.NewDMDA(), simulator.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		perf = append(perf, r.GFlops(f))
		evics = append(evics, float64(r.Evictions))
		wbs = append(wbs, float64(r.Writebacks))
	}
	tbl.Add("dmda", perf, nil)
	tbl.Add("evictions", evics, nil)
	tbl.Add("writebacks", wbs, nil)
	return tbl, nil
}

// Distributed extends the study to a cluster (Section II-B's context):
// ScaLAPACK-style owner-computes under 1D and 2D block-cyclic layouts vs
// fully dynamic cluster-wide scheduling, on 4 heterogeneous nodes
// (3 CPUs + 1 GPU each, 10 GB/s network), against the flat mixed bound.
func Distributed(cfg Config) (*stats.Table, error) {
	node := platform.Mirage()
	node.Classes[0].Count = 3
	node.Classes[1].Count = 1
	cluster := &distributed.Cluster{
		Node:      node,
		Nodes:     4,
		Net:       platform.Bus{Enabled: true, BandwidthBps: 10e9, LatencySec: 5e-6},
		TileBytes: node.TileBytes,
	}
	tbl := &stats.Table{
		Title:  "Extension — distributed memory: owner-computes vs dynamic (4 heterogeneous nodes)",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	variants := []struct {
		name string
		opt  distributed.Options
	}{
		{"owner 1D row-cyclic", distributed.Options{Dist: distributed.RowCyclic{N: 4}, Priorities: true}},
		{"owner 2D block-cyclic", distributed.Options{Dist: distributed.BlockCyclic{P: 2, Q: 2}, Priorities: true}},
		{"dynamic", distributed.Options{Priorities: true}},
	}
	flat := cluster.FlatPlatform()
	series := make([][]float64, len(variants))
	var bound []float64
	for _, n := range cfg.Sizes {
		d := graph.Cholesky(n)
		f := flops(n, cfg.NB)
		for vi, v := range variants {
			r, err := distributed.Simulate(d, cluster, v.opt)
			if err != nil {
				return nil, fmt.Errorf("distributed %s n=%d: %w", v.name, n, err)
			}
			series[vi] = append(series[vi], platform.GFlops(f, r.MakespanSec))
		}
		m, err := bounds.MixedInt(d, flat)
		if err != nil {
			return nil, err
		}
		bound = append(bound, m.GFlops(f))
	}
	for vi, v := range variants {
		tbl.Add(v.name, series[vi], nil)
	}
	tbl.Add("mixed bound (flat)", bound, nil)
	return tbl, nil
}

// TileSizeSweep reproduces the tile-size study behind the paper's fixed
// nb = 960 ("From previous work we are getting maximum performance ... with
// tile size equal to 960"): dmdas performance vs nb for a fixed matrix size
// under the overhead model, showing the small-tile overhead cliff and the
// large-tile parallelism starvation.
func TileSizeSweep(cfg Config, n int, candidates []int) (*stats.Table, error) {
	if n <= 0 {
		n = 15360 // 16 tiles of 960
	}
	if candidates == nil {
		candidates = []int{120, 192, 240, 320, 480, 640, 960, 1920, 3840}
	}
	pts, err := autotune.Sweep(n, candidates, platform.Mirage(), platform.TileNB, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title:  fmt.Sprintf("Tile-size autotuning (N=%d, dmdas, overhead model)", n),
		XLabel: "nb",
		YLabel: "GFLOP/s",
	}
	var perf []float64
	for _, p := range pts {
		tbl.Xs = append(tbl.Xs, float64(p.NB))
		perf = append(perf, p.GFlops)
	}
	tbl.Add("dmdas", perf, nil)
	return tbl, nil
}

// dagFlops sums the per-kernel flop counts over a DAG's tasks (for GFLOP/s
// of irregular DAGs, where closed-form totals do not apply).
func dagFlops(d *graph.DAG, nb int) float64 {
	perKind := map[graph.Kind]float64{
		graph.POTRF: kernels.PotrfFlops(nb),
		graph.TRSM:  kernels.TrsmFlops(nb),
		graph.SYRK:  kernels.SyrkFlops(nb),
		graph.GEMM:  kernels.GemmFlops(nb),
	}
	// Sum in ascending kind order: float rounding must not depend on map
	// iteration order.
	counts := d.CountByKind()
	total := 0.0
	for _, kind := range d.Kinds() {
		total += float64(counts[kind]) * perKind[kind]
	}
	return total
}

// Banded runs the paper's announced "irregular application" direction on
// block-banded Cholesky: for a fixed matrix size, narrower bands mean fewer
// tasks and less parallelism — the bound gap widens as the DAG thins, and
// GPUs starve (the chain dominates).
func Banded(cfg Config, n int, bandwidths []int) (*stats.Table, error) {
	if n <= 0 {
		n = 32
	}
	if bandwidths == nil {
		bandwidths = []int{1, 2, 4, 8, 16, n - 1}
	}
	var xsv []float64
	for _, bw := range bandwidths {
		xsv = append(xsv, float64(bw))
	}
	tbl := &stats.Table{
		Title:  fmt.Sprintf("Extension — block-banded Cholesky (n=%d tiles; bw=n−1 is dense)", n),
		XLabel: "bandwidth(tiles)",
		YLabel: "GFLOP/s",
		Xs:     xsv,
	}
	p := unrelatedSimPlatform(n)
	var perf, bound, tasks []float64
	for _, bw := range bandwidths {
		d := graph.BandedCholesky(n, bw)
		f := dagFlops(d, cfg.NB)
		r, err := simulator.RunContext(cfg.Ctx(), d, p, sched.NewDMDAS(), simulator.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		perf = append(perf, platform.GFlops(f, r.MakespanSec))
		m, err := bounds.MixedInt(d, p)
		if err != nil {
			return nil, err
		}
		bound = append(bound, m.GFlops(f))
		tasks = append(tasks, float64(len(d.Tasks)))
	}
	tbl.Add("dmdas", perf, nil)
	tbl.Add("mixed bound", bound, nil)
	tbl.Add("tasks", tasks, nil)
	return tbl, nil
}

// Batched measures throughput of several concurrent factorizations — a
// batched workload interleaved by the dynamic scheduler vs running the same
// matrices back to back. Interleaving fills the idle slots each individual
// DAG's chain leaves on the GPUs, so the batch finishes faster than the sum
// of its parts on small matrices.
func Batched(cfg Config, n, batch int) (*stats.Table, error) {
	if n <= 0 {
		n = 8
	}
	if batch <= 0 {
		batch = 4
	}
	p := unrelatedSimPlatform(n)
	single := graph.Cholesky(n)
	dags := make([]*graph.DAG, batch)
	for i := range dags {
		dags[i] = graph.Cholesky(n)
	}
	merged := graph.Merge(dags...)
	f := flops(n, cfg.NB)

	seq, err := simulator.RunContext(cfg.Ctx(), single, p, sched.NewDMDAS(), simulator.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	bat, err := simulator.RunContext(cfg.Ctx(), merged, p, sched.NewDMDAS(), simulator.Options{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title:  fmt.Sprintf("Extension — batched factorizations (%d × n=%d, dmdas)", batch, n),
		XLabel: "batch",
		YLabel: "GFLOP/s",
		Xs:     []float64{1, float64(batch)},
	}
	tbl.Add("aggregate throughput", []float64{
		platform.GFlops(f, seq.MakespanSec),
		platform.GFlops(f*float64(batch), bat.MakespanSec),
	}, nil)
	return tbl, nil
}

// PrioritySource is the dmdas priority ablation: the paper computes bottom
// levels from *fastest* execution times; classic HEFT uses platform
// averages. Both run on the no-comm Mirage model.
func PrioritySource(cfg Config) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Ablation — dmdas priority source: fastest times (paper) vs average times (HEFT)",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	variants := []func() sched.Scheduler{sched.NewDMDAS, sched.NewDMDASAvgPrio}
	for _, mk := range variants {
		var vals []float64
		name := mk().Name()
		for _, n := range cfg.Sizes {
			d := graph.Cholesky(n)
			g, err := simGFlops(cfg.Ctx(), d, unrelatedSimPlatform(n), mk(), cfg.NB,
				simulator.Options{Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			vals = append(vals, g)
		}
		tbl.Add(name, vals, nil)
	}
	return tbl, nil
}

// SimulationFidelity reproduces the paper's methodological keystone (the
// StarPU+SimGrid validation: "resulting simulated times are very close to
// actual measurements"): calibrate the real Go kernels on this host, run a
// real homogeneous execution, simulate the same configuration with the
// calibrated model, and report both makespans side by side.
func SimulationFidelity(cfg Config) (*stats.Table, error) {
	nb := cfg.RealNB
	workers := cfg.RealWorkers
	if workers <= 0 {
		workers = 4
	}
	// The simulator's workers are truly parallel; the real goroutines only
	// are when the host has the cores. Model what the hardware can deliver.
	simWorkers := workers
	if ncpu := stdruntime.NumCPU(); simWorkers > ncpu {
		simWorkers = ncpu
	}
	host := platform.CalibratedHost(simWorkers, nb, 5)
	tbl := &stats.Table{
		Title: fmt.Sprintf("Simulation fidelity — real Go execution vs calibrated simulation (%d workers, nb=%d)",
			workers, nb),
		XLabel: "tiles",
		YLabel: "makespan(ms)",
		Xs:     xs(cfg.RealSizes),
	}
	var realMs, simMs []float64
	for _, n := range cfg.RealSizes {
		// Real execution (median of Runs to tame scheduler noise).
		var times []float64
		for rep := 0; rep < cfg.Runs; rep++ {
			a := matrix.RandSPD(n*nb, cfg.Seed+int64(rep))
			tl, err := matrix.FromDense(a, nb)
			if err != nil {
				return nil, err
			}
			r, err := runtime.Factor(tl, runtime.Options{Workers: workers, Policy: runtime.Priority})
			if err != nil {
				return nil, err
			}
			times = append(times, r.Seconds)
		}
		realMs = append(realMs, stats.Median(times)*1e3)
		// Calibrated simulation of the same configuration.
		sim, err := simulator.RunContext(cfg.Ctx(), graph.Cholesky(n), host, sched.NewDMDAS(), simulator.Options{})
		if err != nil {
			return nil, err
		}
		simMs = append(simMs, sim.MakespanSec*1e3)
	}
	tbl.Add("real", realMs, nil)
	tbl.Add("simulated", simMs, nil)
	return tbl, nil
}

// Variants compares the right-looking (Algorithm 1) and left-looking tiled
// Cholesky submission orders under dmdas. The measured outcome is a finding
// in itself: with StarPU-style dataflow dependency inference the two
// variants induce the *same* task graph (the true data dependencies between
// kernel instances are identical, and the commutative updates of each tile
// serialize in the same k-order), so a dependency-driven runtime erases the
// classic right/left-looking distinction — performance is identical. Only
// submission-order-driven runtimes (plain FIFO queues with no priorities)
// can tell the two apart.
func Variants(cfg Config) (*stats.Table, error) {
	tbl := &stats.Table{
		Title:  "Extension — right- vs left-looking Cholesky (identical DAGs under dataflow inference)",
		XLabel: "tiles",
		YLabel: "GFLOP/s",
		Xs:     xs(cfg.Sizes),
	}
	builders := []struct {
		name string
		mk   func(int) *graph.DAG
	}{
		{"right-looking", graph.Cholesky},
		{"left-looking", graph.CholeskyLeftLooking},
	}
	for _, bd := range builders {
		var vals []float64
		for _, n := range cfg.Sizes {
			g, err := simGFlops(cfg.Ctx(), bd.mk(n), unrelatedSimPlatform(n), sched.NewDMDAS(),
				cfg.NB, simulator.Options{Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			vals = append(vals, g)
		}
		tbl.Add(bd.name, vals, nil)
	}
	return tbl, nil
}
