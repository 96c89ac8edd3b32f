// Command choltune sweeps the tile size for a given matrix dimension on a
// platform model and reports the best nb — the automated version of the
// calibration behind the paper's fixed nb = 960 ("From previous work we are
// getting maximum performance ... with tile size equal to 960").
//
// Usage:
//
//	choltune -n 15360
//	choltune -n 23040 -candidates 240,480,960,1920
//	choltune -n 15360 -platform-file mynode.json -ref-nb 960
//	choltune -n 15360 -cp -cp-budget 50000 -workers 4   # CP headroom at the best nb
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/autotune"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/platform"
)

func main() {
	var (
		n        = flag.Int("n", 15360, "matrix dimension")
		cands    = flag.String("candidates", "", "comma-separated tile sizes (default: divisors-based set)")
		platFile = flag.String("platform-file", "", "JSON platform description (default: Mirage)")
		refNB    = flag.Int("ref-nb", platform.TileNB, "tile size the platform model was calibrated at")
		splits   = flag.String("splits", "", "comma-separated F@K mixed-tile specs to sweep at the best uniform nb (e.g. 2@7,2@8; see cholsim -nb-split)")
		seed     = flag.Int64("seed", 42, "jitter seed")
		runs     = flag.Int("runs", 1, "jitter seeds per candidate (seed, seed+1, ...); reports mean ± σ")
		progress = flag.Bool("progress", false, "stream a live sweep-progress ticker to stderr (one tick per evaluated candidate)")
		cp       = flag.Bool("cp", false, "after the sweep, search a CP static schedule at the best nb to report remaining static headroom")
		cpBudget = flag.Int("cp-budget", 100000, "CP search node budget")
		workers  = flag.Int("workers", 1, "CP search worker goroutines (any value returns the identical schedule)")
	)
	flag.Parse()

	p := platform.Mirage()
	if *platFile != "" {
		loaded, err := platform.LoadFile(*platFile)
		if err != nil {
			fatal(err)
		}
		p = loaded
	}

	var candidates []int
	if *cands != "" {
		for _, s := range strings.Split(*cands, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 {
				fatal(fmt.Errorf("bad candidate %q", s))
			}
			candidates = append(candidates, v)
		}
	} else {
		candidates = autotune.Divisors(*n, *n/64, *n/2)
		candidates = append(candidates, *n)
	}

	if *runs < 1 {
		fatal(fmt.Errorf("-runs must be >= 1, got %d", *runs))
	}
	seeds := make([]int64, *runs)
	for i := range seeds {
		seeds[i] = *seed + int64(i)
	}
	var probe *obs.Probe
	if *progress {
		probe = obs.NewProbe(1, obs.TickerSink(os.Stderr, "choltune"))
	}
	points, err := autotune.SweepSeeds(context.Background(), *n, candidates, p, *refNB, seeds, probe)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("tile-size sweep for N=%d on %s (dmdas, overhead model, %d seed(s)):\n\n", *n, p.Name, *runs)
	fmt.Printf("%8s %8s %12s %10s %12s\n", "nb", "tiles", "GFLOP/s", "σ", "makespan(s)")
	best := autotune.Best(points)
	for _, pt := range points {
		marker := ""
		if pt.NB == best.NB {
			marker = "   <- best"
		}
		fmt.Printf("%8d %8d %12.1f %10.2f %12.4f%s\n", pt.NB, pt.Tiles, pt.GFlops, pt.Sigma, pt.Makespan, marker)
	}
	fmt.Printf("\nbest tile size: nb=%d (%.1f GFLOP/s)\n", best.NB, best.GFlops)

	// Optional mixed-tile dimension: refine the trailing panels at the best
	// uniform nb and report whether any split beats it.
	if *splits != "" {
		var specs [][2]int
		for _, s := range strings.Split(*splits, ",") {
			sp, err := cliflags.ParseSplit(strings.TrimSpace(s))
			if err != nil {
				fatal(err)
			}
			specs = append(specs, [2]int{sp.Factor, sp.FromK})
		}
		pts, err := autotune.SweepSplits(*n, best.NB, specs, p, *refNB, *seed)
		if err != nil {
			fatal(err)
		}
		if len(pts) == 0 {
			fatal(fmt.Errorf("no -splits spec fits nb=%d with %d tiles", best.NB, best.Tiles))
		}
		fmt.Printf("\nmixed-tile sweep at nb=%d:\n\n", best.NB)
		fmt.Printf("%8s %8s %12s %12s\n", "split", "fine-nb", "GFLOP/s", "makespan(s)")
		bestSplit := pts[0]
		for _, pt := range pts {
			if pt.GFlops > bestSplit.GFlops {
				bestSplit = pt
			}
		}
		for _, pt := range pts {
			marker := ""
			if pt == bestSplit {
				marker = "   <- best split"
			}
			fmt.Printf("%5d@%-2d %8d %12.1f %12.4f%s\n",
				pt.Factor, pt.FromK, pt.NB/pt.Factor, pt.GFlops, pt.Makespan, marker)
		}
		if bestSplit.GFlops > best.GFlops {
			fmt.Printf("\nmixed tiles win: %d@%d reaches %.1f GFLOP/s vs %.1f uniform (%+.1f%%)\n",
				bestSplit.Factor, bestSplit.FromK, bestSplit.GFlops, best.GFlops,
				100*(bestSplit.GFlops/best.GFlops-1))
		} else {
			fmt.Printf("\nuniform nb=%d stays best (%.1f GFLOP/s)\n", best.NB, best.GFlops)
		}
	}

	// Optional CP refinement: how much a near-optimal static schedule could
	// still buy at the chosen granularity, in the CP model. The solver cost
	// grows with the tile count, so very fine partitions are refused.
	if *cp {
		const cpMaxTiles = 32
		if best.Tiles > cpMaxTiles {
			fatal(fmt.Errorf("-cp supports up to %d tiles, best nb gives %d: pass -candidates with coarser sizes", cpMaxTiles, best.Tiles))
		}
		scaled := autotune.ScalePlatform(p, *refNB, best.NB)
		r, err := core.OptimizeSchedule(context.Background(), best.Tiles, scaled, *cpBudget, *workers)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nCP refinement at nb=%d (P=%d, %d workers): %d nodes, exhausted=%v\n",
			best.NB, best.Tiles, *workers, r.Nodes, r.Exhausted)
		fmt.Printf("CP model makespan %.4f s (%.1f GFLOP/s in the comm-oblivious model)\n",
			r.Makespan, platform.GFlops(kernels.CholeskyFlops(*n), r.Makespan))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "choltune:", err)
	os.Exit(1)
}
