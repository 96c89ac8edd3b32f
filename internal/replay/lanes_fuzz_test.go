package replay

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simulator"
)

// FuzzLanes is the lane-executor contract under random shapes: for a random
// DAG size, platform, scheduler, seed batch and divergence structure, the
// event-level batched path must stay digest-identical to serial simulation,
// and — with synthetic jitter rows agreeing up to a random divergence point,
// which drives the merge and snapshot-resume machinery hard — to
// single-lane execution of the same rows.
func FuzzLanes(f *testing.F) {
	// Genuine jitter batch on the paper platform.
	f.Add(uint8(3), uint8(0), uint8(0), uint8(2), int64(1), uint8(1), true)
	// Duplicate seeds (step 0): pure grouping collapse.
	f.Add(uint8(3), uint8(0), uint8(0), uint8(4), int64(7), uint8(0), true)
	// Jitter off: whole batch collapses to one simulation.
	f.Add(uint8(2), uint8(0), uint8(0), uint8(3), int64(1), uint8(2), false)
	// Non-seed-invariant scheduler: no grouping, every lane simulates.
	f.Add(uint8(2), uint8(1), uint8(2), uint8(3), int64(3), uint8(1), true)
	// Jitter-free platform under overhead: grouping despite Overhead on.
	f.Add(uint8(3), uint8(2), uint8(1), uint8(3), int64(5), uint8(1), true)
	// Late divergence point: maximal snapshot-resume prefix.
	f.Add(uint8(3), uint8(0), uint8(0), uint8(2), int64(9), uint8(200), true)
	f.Fuzz(func(t *testing.T, pU, platU, schedU, nSeedsU uint8, seedBase int64, divU uint8, overhead bool) {
		P := 3 + int(pU%4) // 3..6 tiles
		d := graph.Cholesky(P)
		var pf *platform.Platform
		switch platU % 3 {
		case 0:
			pf = platform.Mirage()
		case 1:
			pf = platform.WithoutCommunication(platform.Mirage())
		case 2:
			pf = platform.Homogeneous(6)
		}
		var mk func() sched.Scheduler
		switch schedU % 4 {
		case 0:
			mk = func() sched.Scheduler { return sched.NewDMDAS() }
		case 1:
			mk = func() sched.Scheduler { return sched.NewGreedy() }
		case 2:
			mk = func() sched.Scheduler { return sched.NewRandom() }
		case 3:
			mk = func() sched.Scheduler { return sched.NewDMDAR() }
		}
		nSeeds := 2 + int(nSeedsU%7) // 2..8 lanes
		step := int64(divU % 3)      // 0 ⇒ duplicate seeds
		seeds := make([]int64, nSeeds)
		for i := range seeds {
			seeds[i] = seedBase + int64(i)*step
		}
		opt := simulator.Options{Overhead: overhead}
		ctx := context.Background()
		workers := 1 + int(platU%3)

		got, err := Seeds(ctx, d, pf, mk, seeds, opt, workers, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			o := opt
			o.Seed = seed
			want, err := simulator.Run(d, pf, mk(), o)
			if err != nil {
				t.Fatal(err)
			}
			if Digest(got[i]) != Digest(want) {
				t.Fatalf("P=%d plat=%d sched=%d seed %d: lane digest %016x, serial %016x",
					P, platU%3, schedU%4, seed, Digest(got[i]), Digest(want))
			}
		}

		// Synthetic divergence: every lane's row copies lane 0 for task IDs
		// below the divergence point and keeps its own draws beyond, so the
		// batch shares a prefix whose length the fuzzer controls. Ground
		// truth is single-lane execution of the identical rows (no merge, no
		// resume possible with one lane).
		if !jitterActive(pf, opt) {
			return
		}
		pp, err := simulator.Prepare(d, pf)
		if err != nil {
			t.Fatal(err)
		}
		nTasks := len(d.Tasks)
		div := int(divU) % (nTasks + 1)
		rows := make([][]float64, nSeeds)
		for i := range rows {
			rows[i] = make([]float64, nTasks)
			simulator.JitterRow(seedBase+int64(i), rows[i])
			if i > 0 {
				copy(rows[i][:div], rows[0][:div])
			}
		}
		lo := laneOptions{
			SnapStride:  1 + int(pU%7),
			MergeStride: 1 + int(nSeedsU%9),
			ForceSplit:  divU&1 == 0,
			NoResume:    divU&2 == 0,
		}
		specs := make([]laneSpec, nSeeds)
		for i := range specs {
			specs[i] = laneSpec{seed: seedBase + int64(i), mk: mk, row: rows[i]}
		}
		batched, err := runLanes(ctx, pp, opt, specs, workers, &Pool{}, lo, nil, &laneStats{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			solo := []laneSpec{{seed: specs[i].seed, mk: mk, row: rows[i]}}
			want, err := runLanes(ctx, pp, opt, solo, 1, &Pool{}, laneOptions{}, nil, &laneStats{})
			if err != nil {
				t.Fatal(err)
			}
			if Digest(batched[i]) != Digest(want[0]) {
				t.Fatalf("P=%d div=%d lane %d (opts %+v): batched digest %016x, single-lane %016x",
					P, div, i, lo, Digest(batched[i]), Digest(want[0]))
			}
		}
	})
}
