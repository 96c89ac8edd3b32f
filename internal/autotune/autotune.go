// Package autotune searches for the best tile size nb for a matrix of size
// N on a modelled platform — the knob the paper fixes to 960 because
// "previous work" (Agullo et al., GPU Computing Gems'10; IPDPS'11) found it
// optimal on Mirage. The trade-off it automates:
//
//   - large tiles: efficient kernels and little runtime overhead, but few
//     tasks, so the heterogeneous machine starves for parallelism;
//   - small tiles: abundant parallelism, but per-task runtime overhead and
//     lower kernel efficiency dominate.
//
// The model scales per-kernel times from a reference calibration at nb₀
// by the flop ratio, damped by an efficiency factor for small tiles
// (kernels below ≈256 run at reduced sustained throughput, as on real
// BLAS), and charges the platform's per-task overhead in simulation.
package autotune

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/simulator"
	"repro/internal/stats"
)

// Efficiency models the sustained-throughput penalty of small tiles. The
// curve now lives in platform.Efficiency (shared with the ScaledModel cost
// model); this delegate remains for the package's historical API.
func Efficiency(nb, refNB int) float64 { return platform.Efficiency(nb, refNB) }

// ScalePlatform derives a platform model for tile size nb from a reference
// model calibrated at refNB: each kernel time is scaled by its flop ratio
// divided by the efficiency factor; tile bytes shrink quadratically. It is a
// materialized view of platform.ScaledModel — the per-kernel times equal
// ScaledModel.Time(class, kind, nb) bit-for-bit — kept because the sweep
// wants a standalone fixed-nb platform per candidate.
func ScalePlatform(ref *platform.Platform, refNB, nb int) *platform.Platform {
	p := ref.Clone()
	p.Name = fmt.Sprintf("%s-nb%d", ref.Name, nb)
	m := platform.NewScaledModel(ref, refNB)
	isCholesky := map[graph.Kind]bool{graph.POTRF: true, graph.TRSM: true, graph.SYRK: true, graph.GEMM: true}
	for ci := range p.Classes {
		times := map[graph.Kind]float64{}
		for k := range p.Classes[ci].Times {
			if !isCholesky[k] {
				continue // non-Cholesky kernels are not retuned
			}
			times[k] = m.Time(ci, k, nb)
		}
		p.Classes[ci].Times = times
		p.Classes[ci].TimesByNB = nil
	}
	p.TileBytes = float64(nb) * float64(nb) * 8
	p.RefNB = nb
	return p
}

// Point is one sweep sample. GFlops and Makespan are means over the swept
// seeds (a single value for one seed); Sigma is the GFLOP/s standard
// deviation, zero for single-seed sweeps.
type Point struct {
	NB       int
	Tiles    int // matrix partitioned into Tiles×Tiles
	GFlops   float64
	Sigma    float64
	Makespan float64
}

// Sweep simulates the Cholesky factorization of an N×N matrix for each
// candidate tile size (N must be divisible by each) under dmdas with the
// runtime-overhead model on, and returns the samples sorted by nb.
func Sweep(n int, candidates []int, ref *platform.Platform, refNB int, seed int64) ([]Point, error) {
	return SweepSeeds(context.Background(), n, candidates, ref, refNB, []int64{seed}, nil)
}

// SweepSeeds is Sweep over several jitter seeds: each candidate's GFlops,
// Makespan and Sigma are the mean ± σ (of GFLOP/s) across the seeds. The
// per-candidate seed replications run through the replay engine, with
// per-seed Results bit-identical to a serial loop. A non-nil probe gets one
// sweep frame per evaluated candidate (Done/Total in candidates) plus a
// Final frame, feeding choltune -progress.
func SweepSeeds(ctx context.Context, n int, candidates []int, ref *platform.Platform,
	refNB int, seeds []int64, probe *obs.Probe) ([]Point, error) {

	if len(seeds) == 0 {
		return nil, fmt.Errorf("autotune: no seeds")
	}
	pool := &replay.Pool{}
	var out []Point
	for ci, nb := range candidates {
		if nb <= 0 || n%nb != 0 {
			continue
		}
		tiles := n / nb
		p := ScalePlatform(ref, refNB, nb)
		d := graph.Cholesky(tiles)
		opt := simulator.Options{Overhead: true}
		results, err := replay.Seeds(ctx, d, p,
			func() sched.Scheduler { return sched.NewDMDAS() }, seeds, opt, 0, pool, nil)
		if err != nil {
			return nil, fmt.Errorf("autotune nb=%d: %w", nb, err)
		}
		gf := make([]float64, len(results))
		ms := make([]float64, len(results))
		for i, r := range results {
			gf[i] = platform.GFlops(kernels.CholeskyFlops(n), r.MakespanSec)
			ms[i] = r.MakespanSec
		}
		out = append(out, Point{
			NB:       nb,
			Tiles:    tiles,
			GFlops:   stats.Mean(gf),
			Sigma:    stats.StdDev(gf),
			Makespan: stats.Mean(ms),
		})
		if probe != nil {
			probe.Emit(obs.Frame{Source: obs.SourceSweep,
				Done: int64(ci + 1), Total: int64(len(candidates))})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("autotune: no candidate tile size divides N=%d", n)
	}
	if probe != nil {
		probe.Emit(obs.Frame{Source: obs.SourceSweep, Final: true,
			Done: int64(len(candidates)), Total: int64(len(candidates))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NB < out[j].NB })
	return out, nil
}

// SplitPoint is one mixed-tile sweep sample: the N×N matrix at coarse tile
// size NB with the trailing panels from FromK on refined Factor× per side
// (graph.CholeskySplit).
type SplitPoint struct {
	NB       int
	Tiles    int
	Factor   int
	FromK    int
	GFlops   float64
	Makespan float64
}

// SweepSplits evaluates mixed-tile candidates under the same conditions as
// Sweep (dmdas, runtime-overhead model on): for each (factor, fromK) spec the
// coarse grid runs at tile size nb and the trailing submatrix is refined.
// Specs whose factor does not divide nb or whose panel exceeds the tile
// count are skipped. Samples return in the input spec order.
func SweepSplits(n, nb int, specs [][2]int, ref *platform.Platform, refNB int, seed int64) ([]SplitPoint, error) {
	if nb <= 0 || n%nb != 0 {
		return nil, fmt.Errorf("autotune: coarse tile size %d does not divide N=%d", nb, n)
	}
	tiles := n / nb
	p := ScalePlatform(ref, refNB, nb)
	p.Model = platform.ModelScaled // price the fine tiles by scaling
	var out []SplitPoint
	for _, spec := range specs {
		factor, fromK := spec[0], spec[1]
		if factor < 2 || nb%factor != 0 || fromK < 0 || fromK > tiles {
			continue
		}
		d := graph.CholeskySplit(tiles, fromK, factor, nb)
		r, err := simulator.Run(d, p, sched.NewDMDAS(),
			simulator.Options{Seed: seed, Overhead: true})
		if err != nil {
			return nil, fmt.Errorf("autotune split %d@%d: %w", factor, fromK, err)
		}
		out = append(out, SplitPoint{
			NB:       nb,
			Tiles:    tiles,
			Factor:   factor,
			FromK:    fromK,
			GFlops:   platform.GFlops(kernels.CholeskyFlops(n), r.MakespanSec),
			Makespan: r.MakespanSec,
		})
	}
	return out, nil
}

// Best returns the highest-GFLOP/s sample of a sweep.
func Best(points []Point) Point {
	best := points[0]
	for _, p := range points[1:] {
		if p.GFlops > best.GFlops {
			best = p
		}
	}
	return best
}

// Divisors returns the divisors of n within [lo, hi] — candidate tile sizes.
func Divisors(n, lo, hi int) []int {
	var out []int
	for d := lo; d <= hi && d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}
