// Package experiments is the reproduction harness: one function per table
// and figure of the paper's evaluation (Section V), each returning a
// printable stats.Table (or rendered string) with the same rows/series the
// paper reports.
//
// Where the paper performs *actual executions* on Mirage hardware we cannot
// have (3 Tesla M2070 GPUs), the harness substitutes overhead-and-jitter
// simulation, as recorded in DESIGN.md; genuinely actual executions of the
// real Go kernels on the host CPUs are provided for the homogeneous case
// (Fig3Real). Paper figures driven by the simulation mode (4, 5, 7, 8, 10)
// are exact reproductions of the method.
package experiments

import (
	"context"

	"repro/internal/obs"
	"repro/internal/platform"
)

// Config sets the sweep parameters of the harness.
type Config struct {
	// Context, when non-nil, cancels the experiment between sweep points and
	// inside the underlying simulations and CP searches. Nil means
	// context.Background() (run to completion).
	Context context.Context
	// Sizes are the tile counts n (matrix size = n·NB), the paper's x-axis
	// "Matrix Size (multiple of 960)".
	Sizes []int
	// Runs is the number of repetitions (different jitter seeds) for the
	// actual-execution substitutes; the paper uses 10.
	Runs int
	// NB is the tile size (the paper fixes 960).
	NB int
	// CPMaxTiles bounds the sizes for which the CP search runs (the paper
	// could only obtain good CP solutions "for reasonable matrix sizes").
	CPMaxTiles int
	// CPBudget is the CP node budget per size (deterministic stand-in for
	// the paper's 23-hour budget).
	CPBudget int
	// TriangleKs are the TRSM-distance thresholds swept for Figures 10/11;
	// nil sweeps 1..n−1.
	TriangleKs []int
	// RealSizes / RealNB / RealWorkers parameterize the genuinely-actual
	// homogeneous runs of the real Go kernels (Fig3Real). Pure-Go kernels
	// are far slower than MKL, so the real sweep uses smaller tiles.
	RealSizes   []int
	RealNB      int
	RealWorkers int
	// Seed is the base RNG seed.
	Seed int64
	// Probe, when non-nil, receives live batch-progress frames from the
	// repeated-seed replications (replay.Seeds): completed jobs, dedup hits,
	// lane merges. Nil costs nothing.
	Probe *obs.Probe
}

// Ctx returns the experiment's context, defaulting to context.Background().
func (c Config) Ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// Default mirrors the paper's experimental range.
func Default() Config {
	var sizes []int
	for n := 2; n <= 32; n += 2 {
		sizes = append(sizes, n)
	}
	return Config{
		Sizes:       sizes,
		Runs:        10,
		NB:          platform.TileNB,
		CPMaxTiles:  10,
		CPBudget:    120000,
		RealSizes:   []int{2, 4, 6, 8, 10, 12},
		RealNB:      64,
		RealWorkers: 0, // GOMAXPROCS
		Seed:        42,
	}
}

// Quick is a scaled-down configuration for tests and smoke runs.
func Quick() Config {
	return Config{
		Sizes:       []int{2, 4, 6, 8},
		Runs:        3,
		NB:          platform.TileNB,
		CPMaxTiles:  5,
		CPBudget:    8000,
		RealSizes:   []int{2, 4},
		RealNB:      32,
		RealWorkers: 4,
		Seed:        42,
	}
}
