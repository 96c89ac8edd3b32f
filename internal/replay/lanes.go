// Lane executor: event-level batched multi-seed replay.
//
// Run hands every group of two or more jobs of one configuration (same
// Prep, scheduler name and options modulo seed) to this executor. Instead
// of one full event loop per seed it batches *inside* the loop: one
// simulator.Prep drives W seed-lanes whose mutable state lives in
// lane-major structure-of-arrays slabs (simulator.LaneBatch), a shared
// scheduler instance is Init'ed once for the whole batch when the proven
// SeedInvariant+PureAssign contracts allow (sched.Shareable), and each
// lane's jitter draws are precomputed algebraically (simulator.JitterRow)
// instead of seeding a generator per task — the dominant cost of a jitter
// run. The driver advances all live lanes in lockstep, one completion event
// per lane per sweep: one event loop advances the whole seed batch.
//
// On top of the batched advance, the whole-run seed-invariance dedup (equal
// jitter rows, or none, under a seed-invariant scheduler: one run plus
// clones) is extended to mid-run granularity:
//
//   - merge: at sparse event-count boundaries, live lanes with equal full
//     state digests (simulator.LaneRun.StateDigest) and bit-identical
//     remaining jitter draws provably share their entire future; the later
//     lane stops and adopts the earlier lane's final Result.
//   - lazy split: when several lanes agree on every root-task draw, one
//     representative runs first with periodic snapshots and a start-order
//     trace; each follower finds the first start index where its draws
//     diverge and resumes from the latest snapshot before it, resimulating
//     only its divergent suffix.
//
// Both carry the same contract as every replay mechanism: per-seed Results
// bit-identical to serial simulation, enforced by the equivalence suite and
// FuzzLanes.
package replay

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simulator"
	"repro/internal/sweep"
)

// laneOptions tunes the lane executor. The zero value picks defaults; the
// other settings exist for white-box tests.
type laneOptions struct {
	// SnapStride is the completion-event interval between representative
	// snapshots during a lazy-split pre-pass; 0 picks ~8 per run.
	SnapStride int
	// MergeStride is the completion-event interval between mid-run re-merge
	// digest checks; 0 picks ~2 per run, negative disables merging.
	MergeStride int
	// ForceSplit disables up-front grouping so provably identical lanes
	// still run as separate lanes — a testing knob that exercises the
	// mid-run merge and snapshot-resume machinery on convergent lanes.
	ForceSplit bool
	// NoResume disables the lazy-split snapshot-resume pre-pass.
	NoResume bool
}

// laneStats reports which lane mechanisms fired for one batch.
type laneStats struct {
	Simulated int // lanes that ran a full simulation from the start
	Cloned    int // lanes answered up front with a clone of an identical lane
	Resumed   int // lanes lazily split: resumed from a representative snapshot
	Merged    int // lanes that re-merged onto a representative mid-run
}

// laneSpec is one lane's inputs: its seed, its scheduler factory and, when
// the jitter model is active, its precomputed per-task draw row.
type laneSpec struct {
	seed int64
	mk   func() sched.Scheduler
	row  []float64
}

// fillJitterRows precomputes each spec's per-task jitter draw row when the
// jitter model is active; rows stay nil otherwise. One flat backing array —
// rows are lane-major stripes of it.
func fillJitterRows(pp *simulator.Prep, p *platform.Platform, opt simulator.Options, specs []laneSpec) {
	if !jitterActive(p, opt) {
		return
	}
	n := len(pp.DAG().Tasks)
	flat := make([]float64, n*len(specs))
	for i := range specs {
		row := flat[i*n : (i+1)*n : (i+1)*n]
		simulator.JitterRow(specs[i].seed, row)
		specs[i].row = row
	}
}

// rowHash folds a jitter row for duplicate-group candidate lookup.
func rowHash(row []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range row {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

func rowsEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] { //chollint:floateq bit-identity is the grouping criterion
			return false
		}
	}
	return true
}

// runLanes is the executor core over a shared Prep: group provably identical
// lanes, shard the representatives across workers, advance each shard's
// lanes through one lockstep event loop, then materialize clones. Finished
// lanes, up-front clones and mid-run merges are reported to prog (nil-safe).
func runLanes(ctx context.Context, pp *simulator.Prep, opt simulator.Options, specs []laneSpec, workers int, pool *Pool, lo laneOptions, prog *progress, stats *laneStats) ([]*simulator.Result, error) {
	n := len(specs)
	s0 := specs[0].mk()
	seedInv := sched.IsSeedInvariant(s0)
	share := sched.Shareable(s0)

	// Group lanes whose runs provably cannot differ: seed invariance makes
	// the Init seed immaterial, so equal jitter rows (or no jitter at all)
	// mean equal runs. Non-seed-invariant policies never group — the PR7
	// conservatism: their Name() need not identify the whole policy.
	rep := make([]int, n)
	for i := range rep {
		rep[i] = i
	}
	if seedInv && !lo.ForceSplit {
		if specs[0].row == nil {
			for i := 1; i < n; i++ {
				rep[i] = 0
			}
		} else {
			byHash := make(map[uint64][]int, n)
			for i := range specs {
				h := rowHash(specs[i].row)
				for _, j := range byHash[h] {
					if rowsEqual(specs[i].row, specs[j].row) {
						rep[i] = j
						break
					}
				}
				if rep[i] == i {
					byHash[h] = append(byHash[h], i)
				}
			}
		}
	}
	var reps []int
	for i := range rep {
		if rep[i] == i {
			reps = append(reps, i)
		}
	}
	stats.Cloned = n - len(reps)
	prog.add(0, stats.Cloned, 0)

	// One scheduler instance for the whole batch when the contracts allow:
	// Init once (bottom levels and priority tables computed once, not per
	// lane), read-only thereafter by PureAssign — safe across shards.
	var sharedS sched.Scheduler
	if share {
		sharedS = s0
		sharedS.Init(pp.DAG(), pp.Platform(), specs[reps[0]].seed)
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nShards := workers
	if nShards > len(reps) {
		nShards = len(reps)
	}
	shards := make([][]int, nShards)
	for k, gi := range reps {
		shards[k%nShards] = append(shards[k%nShards], gi)
	}

	results := make([]*simulator.Result, n)
	var statsMu sync.Mutex
	// Each shard writes disjoint results slots; MapContext supplies the
	// goroutines, ordering and first-error semantics.
	_, err := sweep.MapContext(ctx, shards, nShards, func(shard []int) (struct{}, error) {
		local := laneStats{}
		err := runLaneShard(ctx, pp, opt, specs, shard, share, sharedS, lo, pool, results, &local, prog)
		statsMu.Lock()
		stats.Simulated += local.Simulated
		stats.Resumed += local.Resumed
		stats.Merged += local.Merged
		statsMu.Unlock()
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	for i := range specs {
		if rep[i] != i {
			results[i] = results[rep[i]].Clone()
		}
	}
	return results, nil
}

// laneSnapDefault and laneMergeDefault pick snapshot/merge cadences from the
// task count: ~8 snapshots and ~2 merge checks per run.
func laneSnapDefault(nTasks int) int {
	s := nTasks / 8
	if s < 1 {
		s = 1
	}
	return s
}

func laneMergeDefault(nTasks int) int {
	s := nTasks / 2
	if s < 32 {
		s = 32
	}
	return s
}

// anyRootAgreement reports whether some follower row agrees with the base
// row on every root task — the draws consumed before the first snapshot
// boundary. When no follower does, every lazy split would degenerate to a
// scratch run and the representative's snapshot overhead buys nothing.
func anyRootAgreement(d *graph.DAG, base []float64, specs []laneSpec, shard []int) bool {
	for _, gi := range shard[1:] {
		row := specs[gi].row
		ok := true
		for _, t := range d.Tasks {
			if len(t.Pred) == 0 && row[t.ID] != base[t.ID] { //chollint:floateq bit-identity gate
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// runLaneShard advances one shard's lanes: an optional lazy-split pre-pass
// (representative with snapshots, followers resumed at their divergence
// points), then the lockstep loop with mid-run merge checks.
func runLaneShard(ctx context.Context, pp *simulator.Prep, opt simulator.Options, specs []laneSpec, shard []int, share bool, sharedS sched.Scheduler, lo laneOptions, pool *Pool, results []*simulator.Result, stats *laneStats, prog *progress) error {
	nTasks := len(pp.DAG().Tasks)
	lb := pool.GetBatch()
	defer pool.PutBatch(lb)
	lb.Bind(pp, len(shard))

	for li, gi := range shard {
		lr := lb.Lane(li)
		o := opt
		o.Seed = specs[gi].seed
		s := sharedS
		if !share {
			s = specs[gi].mk()
		}
		lr.Reset(s, o, share)
		if specs[gi].row != nil {
			lr.SetJitterRow(specs[gi].row)
		}
	}

	live := make([]bool, len(shard))
	begun := make([]bool, len(shard))
	resumed := make([]bool, len(shard))
	for li := range shard {
		live[li] = true
	}
	liveCount := len(shard)
	// alias[li] ≥ 0: lane li merged onto that (lower) lane index.
	alias := make([]int, len(shard))
	for li := range alias {
		alias[li] = -1
	}

	finishLane := func(li int) error {
		res, err := lb.Lane(li).Finalize()
		if err != nil {
			return err
		}
		results[shard[li]] = res
		live[li] = false
		liveCount--
		if !resumed[li] {
			stats.Simulated++
		}
		prog.add(1, 0, 0)
		return nil
	}

	// Lazy-split pre-pass: only when a follower can actually reuse a prefix
	// (root-draw agreement), so genuinely jittered batches skip the
	// snapshot overhead entirely.
	if share && !lo.NoResume && len(shard) > 1 && specs[shard[0]].row != nil &&
		anyRootAgreement(pp.DAG(), specs[shard[0]].row, specs, shard) {
		base := lb.Lane(0)
		base.RecordStarts()
		base.Begin()
		begun[0] = true
		snapStride := lo.SnapStride
		if snapStride <= 0 {
			snapStride = laneSnapDefault(nTasks)
		}
		var snaps []*simulator.Snapshot
		for {
			if base.Done()%snapStride == 0 {
				snaps = append(snaps, base.Snapshot())
			}
			if base.Done()%cancelStrideLanes == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("replay: lane batch cancelled: %w", err)
				}
			}
			if !base.Step() {
				break
			}
		}
		if err := finishLane(0); err != nil {
			return err
		}
		order := base.StartOrder()
		baseRow := specs[shard[0]].row
		for li := 1; li < len(shard); li++ {
			row := specs[shard[li]].row
			k := 0
			for k < len(order) && row[order[k]] == baseRow[order[k]] { //chollint:floateq bit-identity gate
				k++
			}
			if k == 0 {
				continue // diverges at the first start: scratch run
			}
			var best *simulator.Snapshot
			for _, sn := range snaps {
				if sn.Started > k {
					break
				}
				best = sn
			}
			if best == nil {
				continue
			}
			lr := lb.Lane(li)
			lr.Restore(best)
			begun[li] = true
			resumed[li] = true
			stats.Resumed++
		}
	}

	for li := range shard {
		if live[li] && !begun[li] {
			lb.Lane(li).Begin()
		}
	}

	mergeStride := lo.MergeStride
	if mergeStride == 0 {
		mergeStride = laneMergeDefault(nTasks)
	}
	mergeOn := share && mergeStride > 0

	// The lockstep loop: one completion event per live lane per sweep.
	sweepN := 0
	var mergedNow []int
	for liveCount > 0 {
		if sweepN%8 == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("replay: lane batch cancelled: %w", err)
			}
		}
		sweepN++
		for li := range shard {
			if !live[li] {
				continue
			}
			if !lb.Lane(li).Step() {
				if err := finishLane(li); err != nil {
					return err
				}
			}
		}
		if mergeOn && liveCount > 1 {
			mergedNow = tryMerge(lb, shard, live, alias, mergeStride, mergedNow[:0])
			if len(mergedNow) > 0 {
				liveCount -= len(mergedNow)
				stats.Merged += len(mergedNow)
				prog.add(len(mergedNow), 0, len(mergedNow))
			}
		}
	}

	// Materialize merged lanes from their surviving representative, chasing
	// alias chains (a lane may merge onto a lane that itself merged).
	for li := range shard {
		if alias[li] < 0 {
			continue
		}
		t := li
		for alias[t] >= 0 {
			t = alias[t]
		}
		results[shard[li]] = results[shard[t]].Clone()
	}
	return nil
}

// cancelStrideLanes mirrors the serial loop's cancellation cadence during
// the lazy-split pre-pass, in completion events of the representative.
const cancelStrideLanes = 32

// tryMerge performs one re-merge check: live lanes at a merge boundary with
// equal (done, state-digest) keys and bit-identical future jitter draws
// cannot diverge again — the later lane stops and adopts the earlier one.
// Appends the merged lane indices to out and returns it.
func tryMerge(lb *simulator.LaneBatch, shard []int, live []bool, alias []int, mergeStride int, out []int) []int {
	type key struct {
		done   int
		digest uint64
	}
	var first map[key]int
	for li := range shard {
		if !live[li] {
			continue
		}
		lr := lb.Lane(li)
		if lr.Done()%mergeStride != 0 || !lr.Pending() {
			continue
		}
		if first == nil {
			first = make(map[key]int, len(shard))
		}
		k := key{done: lr.Done(), digest: lr.StateDigest()}
		if canon, ok := first[k]; ok {
			if lb.Lane(canon).FutureJitterEqual(lr) {
				alias[li] = canon
				live[li] = false
				out = append(out, li)
				continue
			}
		} else {
			first[k] = li
		}
	}
	return out
}
