// Deterministic parallel branch-and-bound.
//
// Naive parallel B&B — workers pulling nodes from a shared pool and pruning
// against a racily-updated incumbent — returns whatever schedule the OS
// scheduler's timing favored: with a bounded node budget the explored set,
// and with epsilon pruning even the winning makespan, depend on interleaving.
// This driver instead makes the parallel search a *speculative execution of
// a fixed sequential semantics*:
//
//  1. A sequential split phase expands the tree breadth-first (children in
//     dfs's exact branch order) until the frontier holds splitTarget
//     disjoint subtrees. The target is a constant — NOT scaled by Workers —
//     so the partition, and hence the Result, is identical for every worker
//     count.
//  2. The remaining node budget is divided into per-subtree slices by index
//     (earlier subtrees get the +1 remainders). Budget left over by subtrees
//     that exhaust early is redistributed to the cut ones in later rounds,
//     each re-run resuming (by deterministic re-exploration) with a strictly
//     larger slice.
//  3. The committed incumbent lives in an atomic uint64 (math.Float64bits),
//     published only by the in-order committer and snapshotted by workers
//     for pruning. Workers speculate: each claims the next subtree index,
//     searches it against its snapshot, and re-runs locally while the
//     snapshot is stale. The committer consumes results in subtree order;
//     a result whose snapshot no longer bit-matches the committed incumbent
//     is deterministically re-run inline. Improvements therefore commit in
//     (makespan, subtree index) order — the same reduction the sequential
//     loop performs.
//
// Workers only ever help or redo work; they cannot change what is committed.
// That is what makes Result — schedule, makespan, Nodes, Exhausted — exactly
// reproducible: `Workers: 8` returns byte-for-byte what `Workers: 1` does.
package cpsolve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sched"
)

// splitTarget is the number of disjoint subtrees the sequential split phase
// carves the search tree into. It bounds usable parallelism (workers beyond
// it idle) and must not depend on Options.Workers: the partition defines the
// budget slicing, so scaling it with the pool would change the Result across
// worker counts.
const splitTarget = 64

// maxRounds caps budget-redistribution rounds. Each round re-runs only
// subtrees that both were cut and received new budget, so in the common
// cases (budget-bound search: every slice is consumed in round one;
// exhaustive search: round two finishes the stragglers) the cap is slack.
const maxRounds = 6

// step is one branch decision: task placed on an internal resource class.
type step struct{ task, class int32 }

// subtree is a root of an unexplored region, identified by the decision path
// from the tree root. Replaying the path reconstructs the solver state.
type subtree struct {
	path []step
}

// incumbent is the committed-prefix search state: the best schedule among
// the warm start, the split phase, and all committed subtrees. Only the
// sequential phases (split, committer) write it; workers read the published
// bits for pruning snapshots.
type incumbent struct {
	mk     float64
	worker []int
	start  []float64
	bits   atomic.Uint64 // math.Float64bits(mk), for worker snapshots

	// Live-progress tap, written only from the sequential phases (split,
	// committer), so the emitted frame stream is identical for every
	// Options.Workers value — the same argument that makes the Result
	// deterministic covers the telemetry.
	probe      *obs.Probe
	budget     int // total node budget of the search
	splitNodes int // nodes consumed by the sequential split phase
	lastDone   int // high-water mark of reported progress
}

func newIncumbent(pr *prob) *incumbent {
	g := &incumbent{
		mk:     math.Inf(1),
		worker: make([]int, pr.nTasks),
		start:  make([]float64, pr.nTasks),
		probe:  pr.opt.Probe,
		budget: pr.opt.NodeBudget,
	}
	g.bits.Store(math.Float64bits(g.mk))
	return g
}

// emitProgress builds one cpsolve frame from the committed state. Must only
// be called from the sequential phases, behind the probe nil fast-path.
func (g *incumbent) emitProgress(alloc []int, cutPending []bool, final bool) {
	p := g.probe
	if p == nil {
		return
	}
	total := g.splitNodes
	for _, a := range alloc {
		total += a
	}
	// A commit can shrink a completed subtree's alloc back to actual usage;
	// report the high-water mark so Done never regresses.
	if total < g.lastDone {
		total = g.lastDone
	}
	g.lastDone = total
	cut := 0
	for _, c := range cutPending {
		if c {
			cut++
		}
	}
	if !final && !p.Due(int64(total)) {
		return
	}
	p.Emit(obs.Frame{
		Source:       obs.SourceCPSolve,
		Done:         int64(total),
		Total:        int64(g.budget),
		Final:        final,
		Nodes:        int64(total),
		IncumbentSec: g.mk,
		CutSubtrees:  int64(cut),
	})
}

// publishMin lowers the published incumbent bits to mk if it improves. The
// CAS loop makes the publish safe regardless of caller, though in steady
// state only the committer writes.
func (g *incumbent) publishMin(mk float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) <= mk {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(mk)) {
			return
		}
	}
}

// commitSolution records a complete schedule held in solver state (worker
// and finish arrays) as the new committed incumbent.
func (g *incumbent) commitSolution(pr *prob, worker []int, finish []float64, mk float64) {
	g.mk = mk
	copy(g.worker, worker)
	for id := range pr.d.Tasks {
		ci := pr.workerCi[worker[id]]
		g.start[id] = finish[id] - pr.classExec[ci][pr.taskGroup[id]]
	}
	g.publishMin(mk)
}

// runResult is one subtree search outcome, tagged with the incumbent
// snapshot it pruned against so the committer can detect stale speculation.
type runResult struct {
	used      int
	cut       bool
	cancelled bool
	snapshot  uint64
	improved  bool
	mk        float64
	worker    []int
	start     []float64
}

// runSubtree searches one subtree with the given total node budget, pruning
// against the incumbent snapshot (as bits). The solver is reusable state;
// the run is a pure function of (prob, path, budget, snapshot).
func runSubtree(sv *solver, st subtree, budget int, snapshot uint64) runResult {
	sv.bestMk = math.Float64frombits(snapshot)
	sv.reset()
	mf := sv.replayPath(st.path)
	sv.improved = false
	sv.nodes = 0
	sv.budget = budget
	sv.cut = false
	sv.cancelled = false
	sv.dfs(len(st.path), mf)
	rr := runResult{used: sv.nodes, cut: sv.cut, cancelled: sv.cancelled, snapshot: snapshot}
	if sv.improved {
		rr.improved = true
		rr.mk = sv.bestMk
		rr.worker = append([]int(nil), sv.bestWorker...)
		rr.start = append([]float64(nil), sv.bestStart...)
	}
	return rr
}

// splitState is the outcome of the sequential split phase.
type splitState struct {
	frontier  []subtree
	nodes     int
	cut       bool
	cancelled bool
}

// split expands the tree FIFO from the root — each expansion enumerating
// children with exactly dfs's candidate selection, class order, and pruning
// — until the frontier holds splitTarget disjoint subtrees, drains, or hits
// the budget. Complete solutions met on the way are committed immediately,
// so the frontier is pruned against the best split-phase incumbent.
func (s *solver) split(g *incumbent) *splitState {
	sp := &splitState{}
	queue := []subtree{{}}
	qHead := 0
	budget := s.pr.opt.NodeBudget
	for qHead < len(queue) && len(queue)-qHead < splitTarget {
		if sp.nodes >= budget {
			sp.cut = true
			break
		}
		sp.nodes++
		if sp.nodes%cancelCheckStride == 0 && s.ctx.Err() != nil {
			sp.cancelled = true
			break
		}
		st := queue[qHead]
		qHead++
		s.bestMk = g.mk
		s.reset()
		mf := s.replayPath(st.path)
		if s.nReady == 0 {
			if mf < g.mk {
				g.commitSolution(s.pr, s.worker, s.finish, mf)
			}
			continue
		}
		if s.boundPrunes(mf) {
			continue
		}
		cands := s.selectCands(0)
		for _, id := range cands {
			for _, pl := range s.pr.placements[s.pr.taskGroup[id]] {
				ci, exec := pl.ci, pl.exec
				df := s.readyOn(id, ci)
				_, wf := s.earliestFree(ci)
				start := wf
				if df > start {
					start = df
				}
				end := start + exec
				if end+s.tailAfter(id) >= s.bestMk-pruneEps {
					continue
				}
				child := subtree{path: make([]step, len(st.path)+1)}
				copy(child.path, st.path)
				child.path[len(st.path)] = step{task: int32(id), class: int32(ci)}
				queue = append(queue, child)
			}
		}
	}
	sp.frontier = queue[qHead:]
	return sp
}

// solveParallel runs the partitioned search: split, then redistribution
// rounds of per-subtree runs, sequential or speculative depending on
// Options.Workers — with identical results either way.
func solveParallel(ctx context.Context, pr *prob, g *incumbent) (*Result, error) {
	base := newSolver(pr, ctx)
	sp := base.split(g)
	if sp.cancelled || ctx.Err() != nil {
		return nil, fmt.Errorf("cpsolve: search cancelled after %d nodes: %w", sp.nodes, ctx.Err())
	}

	subtrees := sp.frontier
	alloc := make([]int, len(subtrees)) // total node budget granted (and, if cut, consumed) per subtree
	cutPending := make([]bool, len(subtrees))
	pending := make([]int, 0, len(subtrees))
	for i := range subtrees {
		pending = append(pending, i)
		cutPending[i] = true
	}
	rem := pr.opt.NodeBudget - sp.nodes
	g.splitNodes = sp.nodes
	if g.probe != nil {
		g.emitProgress(alloc, cutPending, false)
	}

	var pool []*solver
	for round := 0; round < maxRounds && len(pending) > 0 && rem > 0; round++ {
		// Grant this round's budget: equal shares by subtree index, earlier
		// indices taking the remainder. A pending subtree with no new grant
		// would deterministically reproduce its previous cut run, so only
		// granted subtrees re-run.
		grant := rem / len(pending)
		extra := rem % len(pending)
		run := make([]int, 0, len(pending))
		for j, i := range pending {
			gi := grant
			if j < extra {
				gi++
			}
			if gi == 0 {
				continue
			}
			alloc[i] += gi
			run = append(run, i)
		}

		var err error
		if pr.opt.Workers > 1 && len(run) > 1 {
			if pool == nil {
				n := pr.opt.Workers
				if n > len(run) {
					n = len(run)
				}
				pool = make([]*solver, n)
				for w := range pool {
					pool[w] = newSolver(pr, ctx)
				}
			}
			err = runRoundParallel(ctx, base, pool, subtrees, alloc, run, g, cutPending)
		} else {
			err = runRoundSequential(ctx, base, subtrees, alloc, run, g, cutPending)
		}
		if err != nil {
			total := sp.nodes
			for _, a := range alloc {
				total += a
			}
			return nil, fmt.Errorf("cpsolve: search cancelled after %d nodes: %w", total, err)
		}

		// Completed subtrees return their slack to the pool (their alloc is
		// frozen at actual usage by commitRun); cut subtrees consumed their
		// whole grant. The unconsumed pool is whatever the allocations don't
		// cover.
		next := pending[:0]
		for _, i := range pending {
			if cutPending[i] {
				next = append(next, i)
			}
		}
		pending = next
		rem = pr.opt.NodeBudget - sp.nodes
		for _, a := range alloc {
			rem -= a
		}
	}

	total := sp.nodes
	for _, a := range alloc {
		total += a
	}
	exhausted := !sp.cut && len(pending) == 0
	if g.probe != nil {
		g.emitProgress(alloc, cutPending, true)
	}

	start := make([]float64, pr.nTasks)
	copy(start, g.start)
	return &Result{
		Schedule: &sched.StaticSchedule{
			Worker:      append([]int{}, g.worker...),
			Start:       start,
			EstMakespan: g.mk,
		},
		Makespan:  g.mk,
		Nodes:     total,
		Exhausted: exhausted,
	}, nil
}

// commitRun folds one validated subtree result into the committed state:
// actual usage replaces the grant for completed subtrees (freeing the slack
// for the next round's redistribution), and strict improvements move the
// incumbent.
func commitRun(g *incumbent, rr runResult, alloc []int, cutPending []bool, i int) {
	if !rr.cut {
		alloc[i] = rr.used
		cutPending[i] = false
	}
	if rr.improved && rr.mk < g.mk {
		g.mk = rr.mk
		copy(g.worker, rr.worker)
		copy(g.start, rr.start)
		g.publishMin(rr.mk)
	}
	if g.probe != nil {
		g.emitProgress(alloc, cutPending, false)
	}
}

// runRoundSequential is the Workers≤1 path: each subtree runs inline against
// the exact committed incumbent. This loop *defines* the semantics the
// speculative path must reproduce.
func runRoundSequential(ctx context.Context, sv *solver, subtrees []subtree, alloc []int, run []int, g *incumbent, cutPending []bool) error {
	for _, i := range run {
		rr := runSubtree(sv, subtrees[i], alloc[i], math.Float64bits(g.mk))
		if rr.cancelled {
			return ctx.Err()
		}
		commitRun(g, rr, alloc, cutPending, i)
	}
	return nil
}

// runRoundParallel fans the round's subtrees over the worker pool.
//
// Workers claim subtree indices from an atomic counter, search against a
// snapshot of the published incumbent, and locally retry while the snapshot
// went stale before submitting — keeping re-search off the critical
// committer thread. The committer consumes results in claim order; the rare
// result whose snapshot still mismatches the committed incumbent (a commit
// landed between the worker's re-check and its turn) is re-run inline with
// the true incumbent. Every committed run is therefore a function of the
// committed prefix alone, which is what makes the round's outcome equal to
// runRoundSequential's bit for bit.
func runRoundParallel(ctx context.Context, base *solver, pool []*solver, subtrees []subtree, alloc []int, run []int, g *incumbent, cutPending []bool) error {
	type idxResult struct {
		pos int
		rr  runResult
	}
	results := make(chan idxResult, len(run)) // full capacity: sends never block, so workers always unwind
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range pool {
		wg.Add(1)
		// The worker loop's ctx.Err() check is load-bearing twice over: it is
		// the cancellation path the cancel tests pin, and it is the exit gate
		// chollint's leakguard analyzer requires of every goroutine spawned in
		// this package.
		go func(sv *solver) {
			defer wg.Done()
			for {
				pos := int(next.Add(1)) - 1
				if pos >= len(run) || ctx.Err() != nil {
					return
				}
				i := run[pos]
				for {
					snap := g.bits.Load()
					rr := runSubtree(sv, subtrees[i], alloc[i], snap)
					if rr.cancelled || g.bits.Load() == snap {
						results <- idxResult{pos: pos, rr: rr}
						if rr.cancelled {
							return
						}
						break
					}
					// Snapshot went stale mid-run: retry against the fresh
					// incumbent before submitting.
				}
			}
		}(pool[w])
	}

	slots := make([]runResult, len(run))
	got := make([]bool, len(run))
	var err error
	for pos := 0; pos < len(run) && err == nil; pos++ {
		for !got[pos] && err == nil {
			// Also watch ctx directly: a cancelled worker abandons its
			// claimed slot without submitting, so waiting on the channel
			// alone could block forever.
			select {
			case r := <-results:
				slots[r.pos] = r.rr
				got[r.pos] = true
				if r.rr.cancelled {
					err = ctx.Err()
				}
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		if err != nil {
			break
		}
		rr := slots[pos]
		i := run[pos]
		if rr.snapshot != math.Float64bits(g.mk) {
			// Stale speculation: redo this subtree against the committed
			// incumbent. Bounded by the subtree's slice, and rare — only a
			// commit racing the worker's final re-check lands here.
			rr = runSubtree(base, subtrees[i], alloc[i], math.Float64bits(g.mk))
			if rr.cancelled {
				err = ctx.Err()
				break
			}
		}
		commitRun(g, rr, alloc, cutPending, i)
	}
	wg.Wait()
	return err
}
