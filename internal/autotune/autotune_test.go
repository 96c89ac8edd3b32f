package autotune

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simulator"
	"repro/internal/stats"
)

func TestEfficiencyShape(t *testing.T) {
	if Efficiency(960, 960) != 1 || Efficiency(2000, 960) != 1 {
		t.Fatal("efficiency above reference must be 1")
	}
	if e := Efficiency(240, 960); e <= 0.5 || e >= 1 {
		t.Fatalf("quarter-size efficiency %g out of band", e)
	}
	// Monotone in nb.
	prev := 0.0
	for nb := 60; nb <= 960; nb += 60 {
		e := Efficiency(nb, 960)
		if e < prev {
			t.Fatalf("efficiency not monotone at nb=%d", nb)
		}
		prev = e
	}
}

func TestScalePlatformReferenceIdentity(t *testing.T) {
	ref := platform.Mirage()
	p := ScalePlatform(ref, platform.TileNB, platform.TileNB)
	for _, k := range graph.CholeskyKinds {
		for c := 0; c <= 1; c++ {
			if math.Abs(p.Time(c, k)-ref.Time(c, k)) > 1e-15 {
				t.Fatalf("identity scaling changed %v", k)
			}
		}
	}
	if p.TileBytes != ref.TileBytes {
		t.Fatal("tile bytes changed")
	}
}

// TestScalePlatformMatchesScaledModel pins ScalePlatform as a materialized
// view of platform.ScaledModel: every per-kernel time of the scaled platform
// must equal ScaledModel.Time bit-for-bit (compared as Float64bits, not
// within a tolerance), for every class and a spread of tile sizes.
func TestScalePlatformMatchesScaledModel(t *testing.T) {
	ref := platform.Mirage()
	m := platform.NewScaledModel(ref, platform.TileNB)
	for _, nb := range []int{120, 240, 480, 960, 1920} {
		p := ScalePlatform(ref, platform.TileNB, nb)
		for _, k := range graph.CholeskyKinds {
			for c := range p.Classes {
				got := p.Time(c, k)
				want := m.Time(c, k, nb)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("nb=%d class=%d %v: ScalePlatform %v != ScaledModel %v", nb, c, k, got, want)
				}
			}
		}
		if p.RefNB != nb {
			t.Fatalf("nb=%d: scaled platform RefNB = %d", nb, p.RefNB)
		}
	}
}

func TestScalePlatformSmallerTilesFasterKernels(t *testing.T) {
	ref := platform.Mirage()
	p := ScalePlatform(ref, platform.TileNB, 480)
	for _, k := range graph.CholeskyKinds {
		if p.Time(1, k) >= ref.Time(1, k) {
			t.Fatalf("%v at nb=480 not faster than at 960", k)
		}
	}
	// GEMM scales by ≈ (1/2)³ / eff: between 8× and 5× faster.
	r := ref.Time(1, graph.GEMM) / p.Time(1, graph.GEMM)
	if r < 5 || r > 8 {
		t.Fatalf("GEMM scaling ratio %g out of band", r)
	}
}

func TestSweepFindsInteriorOptimum(t *testing.T) {
	// N = 7680: candidates from very small (overhead-dominated) to one huge
	// tile (no parallelism). The optimum must be interior — neither extreme.
	ref := platform.Mirage()
	pts, err := Sweep(7680, []int{120, 240, 480, 960, 1920, 3840, 7680}, ref, platform.TileNB, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Fatalf("%d points", len(pts))
	}
	best := Best(pts)
	if best.NB == 120 || best.NB == 7680 {
		t.Fatalf("optimum at extreme nb=%d", best.NB)
	}
	// One giant tile = serial execution on the fastest unit: worst or near it.
	var nb7680 Point
	for _, p := range pts {
		if p.NB == 7680 {
			nb7680 = p
		}
	}
	if nb7680.GFlops >= best.GFlops {
		t.Fatal("serial single tile cannot be optimal")
	}
}

func TestSweepSplitsSkipsBadSpecs(t *testing.T) {
	pts, err := SweepSplits(7680, 960, [][2]int{{2, 4}, {2, 6}, {7, 3}, {2, 99}},
		platform.Mirage(), platform.TileNB, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2 (7∤960 and fromK=99 must be skipped)", len(pts))
	}
	for _, pt := range pts {
		if pt.NB != 960 || pt.Tiles != 8 || pt.Factor != 2 {
			t.Fatalf("bad point %+v", pt)
		}
		if pt.Makespan <= 0 || pt.GFlops <= 0 {
			t.Fatalf("degenerate sample %+v", pt)
		}
	}
	if _, err := SweepSplits(7680, 7, nil, platform.Mirage(), platform.TileNB, 42); err == nil {
		t.Fatal("non-dividing coarse nb must error")
	}
}

func TestSweepRejectsNoDivisors(t *testing.T) {
	if _, err := Sweep(1000, []int{7, 13}, platform.Mirage(), platform.TileNB, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestDivisors(t *testing.T) {
	d := Divisors(960, 100, 500)
	want := []int{120, 160, 192, 240, 320, 480}
	if len(d) != len(want) {
		t.Fatalf("divisors %v", d)
	}
	for i, v := range want {
		if d[i] != v {
			t.Fatalf("divisors %v, want %v", d, want)
		}
	}
}

// TestSweepSeedsMatchesSerialLoop: the replay-engine sweep is bit-identical
// to evaluating each candidate with a per-seed simulator.RunContext loop —
// every sample's mean, σ and makespan, bit for bit.
func TestSweepSeedsMatchesSerialLoop(t *testing.T) {
	const n = 3840
	ctx := context.Background()
	seeds := []int64{1, 2, 3, 4, 5}
	cands := []int{480, 960, 1920}
	got, err := SweepSeeds(ctx, n, cands, platform.Mirage(), platform.TileNB, seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cands) {
		t.Fatalf("%d points for %d candidates", len(got), len(cands))
	}
	for i, nb := range cands {
		p := ScalePlatform(platform.Mirage(), platform.TileNB, nb)
		d := graph.Cholesky(n / nb)
		var gf, ms []float64
		for _, seed := range seeds {
			r, err := simulator.RunContext(ctx, d, p, sched.NewDMDAS(), simulator.Options{Seed: seed, Overhead: true})
			if err != nil {
				t.Fatal(err)
			}
			gf = append(gf, platform.GFlops(kernels.CholeskyFlops(n), r.MakespanSec))
			ms = append(ms, r.MakespanSec)
		}
		want := Point{NB: nb, Tiles: n / nb, GFlops: stats.Mean(gf), Sigma: stats.StdDev(gf), Makespan: stats.Mean(ms)}
		if got[i] != want {
			t.Errorf("point %d: sweep %+v, serial loop %+v", i, got[i], want)
		}
	}
	if _, err := SweepSeeds(ctx, n, cands, platform.Mirage(), platform.TileNB, nil, nil); err == nil {
		t.Fatal("empty seed list must error")
	}
}
