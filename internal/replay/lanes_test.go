package replay_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/simulator"
)

// laneSeeds returns the 32-seed batch the lane contract is stated over.
func laneSeeds() []int64 {
	seeds := make([]int64, 32)
	for i := range seeds {
		seeds[i] = int64(i*7 + 1) // non-contiguous: no accidental draw overlap
	}
	return seeds
}

// TestLanesBitIdentical is the lane-executor contract: for every registered
// platform × a scheduler set covering all marker combinations × 32 seeds,
// the event-level batched path produces digest-identical Results to looping
// the serial simulator. Overhead is on so the mirage-family platforms
// exercise the jitter-lane regime (every seed genuinely distinct); the
// jitter-free platforms exercise the grouping collapse. Run under -race this
// also proves the shared-scheduler and shared-Prep lanes are data-race-free.
func TestLanesBitIdentical(t *testing.T) {
	platforms := []string{"mirage", "mirage-nocomm", "mirage-extended", "homogeneous:8", "related:10"}
	// dmdas: SeedInvariant+PureAssign (shared instance, merge, resume);
	// dmdar: seed-invariant but impure Assign (fresh instances, no merge);
	// random: neither (no grouping: a fresh instance per lane);
	// greedy: shareable with a trivial priority model.
	schedulers := []string{"dmdas", "dmdar", "random", "greedy"}
	seeds := laneSeeds()
	d := graph.Cholesky(6)
	for _, pname := range platforms {
		p, err := core.NewPlatform(pname)
		if err != nil {
			t.Fatalf("platform %s: %v", pname, err)
		}
		for _, sname := range schedulers {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/w%d", pname, sname, workers), func(t *testing.T) {
					t.Parallel()
					mk := func() sched.Scheduler {
						s, err := core.NewScheduler(sname)
						if err != nil {
							t.Fatalf("scheduler %s: %v", sname, err)
						}
						return s
					}
					opt := simulator.Options{Overhead: true}
					want := make([]uint64, len(seeds))
					for i, seed := range seeds {
						o := opt
						o.Seed = seed
						r, err := simulator.Run(d, p, mk(), o)
						if err != nil {
							t.Fatalf("serial seed %d: %v", seed, err)
						}
						want[i] = replay.Digest(r)
					}
					got, err := replay.Seeds(context.Background(), d, p, mk, seeds, opt, workers, nil, nil)
					if err != nil {
						t.Fatalf("lanes: %v", err)
					}
					if len(got) != len(seeds) {
						t.Fatalf("lanes returned %d results for %d seeds", len(got), len(seeds))
					}
					for i, r := range got {
						if dg := replay.Digest(r); dg != want[i] {
							t.Errorf("seed %d: lane digest %016x, serial %016x", seeds[i], dg, want[i])
						}
					}
				})
			}
		}
	}
}

// TestLanesCancellation: a cancelled context aborts the batch with an error
// and leaves the pool reusable for a subsequent bit-identical batch.
func TestLanesCancellation(t *testing.T) {
	d, p := graph.Cholesky(6), platform.Mirage()
	mk := func() sched.Scheduler { return sched.NewDMDAS() }
	seeds := laneSeeds()
	pool := &replay.Pool{}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := replay.Seeds(cancelled, d, p, mk, seeds, simulator.Options{Overhead: true}, 2, pool, nil); err == nil {
		t.Fatal("pre-cancelled lane batch succeeded")
	}
	got, err := replay.Seeds(context.Background(), d, p, mk, seeds, simulator.Options{Overhead: true}, 2, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		want, err := simulator.Run(d, p, mk(), simulator.Options{Seed: seed, Overhead: true})
		if err != nil {
			t.Fatal(err)
		}
		if replay.Digest(got[i]) != replay.Digest(want) {
			t.Errorf("seed %d after cancelled batch: digest mismatch", seed)
		}
	}
}
