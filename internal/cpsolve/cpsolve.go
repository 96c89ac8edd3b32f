// Package cpsolve is the reproduction's stand-in for the paper's constraint-
// programming solver (CP Optimizer v12.4, Section III-B): a depth-first
// branch-and-bound search over (ready task × resource class) scheduling
// decisions with critical-path-based pruning and a warm start.
//
// The model matches the paper's CP formulation: each task runs on one
// resource of one class, taking that class's kernel time; at most M_r tasks
// of class r run concurrently; dependencies are respected; data transfers
// are not modelled ("it would otherwise be extremely costly to solve").
//
// Like the paper's solver — which ran for 23 hours without proving
// optimality — this search is budgeted (by node count, for determinism) and
// returns the best *feasible* schedule found plus whether the search space
// (of active schedules) was exhausted.
//
// The search is a deterministic parallel branch-and-bound (see parallel.go):
// a sequential split phase partitions the tree into disjoint subtrees, which
// a bounded worker pool explores speculatively against a snapshot of the
// shared incumbent; an in-order commit step validates each speculation and
// deterministically re-runs the rare stale ones, so the returned Result —
// schedule, makespan, Nodes, Exhausted — is bit-identical for every value of
// Options.Workers, including the serial path.
package cpsolve

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
)

// Options controls the search.
type Options struct {
	// NodeBudget caps the number of explored search nodes (deterministic
	// analogue of the paper's 23-hour wall-clock budget). Default 200000.
	NodeBudget int
	// Beam is how many of the highest-priority ready tasks are branched on
	// per node. Default 2. Larger = wider search, costlier.
	Beam int
	// WarmStart seeds the incumbent (the paper warm-starts with HEFT).
	// When nil, a HEFT schedule is computed automatically.
	WarmStart *sched.StaticSchedule
	// CommHopSec, when positive, makes the model *partially data-aware* —
	// the extension the paper describes as ongoing work ("we are currently
	// extending the CP formulation to partially take data transfers into
	// account"): every dependency crossing resource classes delays the
	// successor by one PCI-hop time. Zero keeps the paper's published
	// communication-oblivious CP model.
	CommHopSec float64
	// Workers is the number of goroutines exploring subtrees concurrently.
	// Values ≤ 1 run the same partitioned search on the calling goroutine.
	// The Result is bit-identical for every value of Workers.
	Workers int
	// Probe, when non-nil, receives live progress frames (nodes expanded
	// vs budget, incumbent trajectory, budget-cut subtree count) from the
	// sequential commit points of the search, so the frame stream is
	// bit-identical for every value of Workers. Nil costs one pointer
	// check. Same contract as simulator.Options.Probe.
	Probe *obs.Probe
}

// Result of a search.
type Result struct {
	Schedule *sched.StaticSchedule
	Makespan float64
	Nodes    int
	// Exhausted reports that the search space (of active schedules) was
	// fully explored: no subtree was cut short by the node budget or by
	// cancellation.
	Exhausted bool
}

// pruneEps is the slack under the incumbent a branch must beat to be
// explored: float noise from summing task times differs in the last ulps
// between equivalent schedules, and pruning on exact >= would make the
// search order sensitive to it.
const pruneEps = 1e-12

// prob holds the immutable, shareable description of one search: the DAG,
// the platform, and every table precomputed from them. Worker solvers all
// point at the same prob.
type prob struct {
	d   *graph.DAG
	p   *platform.Platform
	opt Options

	blFast []float64 // bottom levels under fastest times (pruning + order)
	tail   []float64 // blFast minus the task's own fastest time

	classes    []int         // usable platform class indices
	classExec  [][]float64   // per internal class, exec time per cost group (+Inf unsupported)
	placements [][]placement // per cost group, supported classes in branch order

	// Cost groups are the distinct (kind, nb) pairs the cost model must
	// price: groups 0..NumKinds−1 are the nb = 0 base groups (uniform DAGs
	// index nothing else, keeping their tables bit-identical to the
	// per-kind layout), and each additional tile size present in the DAG
	// appends one group per occurring kind.
	taskGroup []int32
	groupKind []graph.Kind
	groupNB   []int
	workerOf  [][]int // per internal class, its workers
	workerCi  []int   // per worker, its internal class index
	nTasks    int

	baseIndeg []int
	roots     []int

	// Branch priority: tasks sorted once by (blFast desc, ID). rank[id] is a
	// task's position in that order and byRank its inverse, so the ready
	// bitset's lowest set bits are the best candidates.
	rank   []int32
	byRank []int32
}

// placement is one branch of a task: an internal class that supports it and
// its exec time there.
type placement struct {
	ci   int
	exec float64
}

// solver is one worker's mutable search state. Everything here is reset and
// replayed per subtree, so a solver can be reused across any number of runs.
type solver struct {
	pr  *prob
	ctx context.Context

	workerFree []float64
	finish     []float64
	worker     []int
	indeg      []int

	// The ready set is a bitset over branch-priority ranks plus its size.
	// When a task wakes its predecessors are all committed, and they stay
	// so while it is ready, so everything derived from them is fixed then:
	// readyAt is its dependency-ready time (latest predecessor finish),
	// bound (indexed by rank) that plus its bottom level, and, under the
	// comm model only, readyOnClass its ready time per internal class
	// (row-major, len(classes) per task). predMax is wake's scratch row.
	//
	// over counts the ready tasks whose bound reaches bestMk−pruneEps, so
	// the node's lower-bound test is O(1). bestMk is set before a run
	// builds its ready set and otherwise only drops at a complete schedule,
	// where the ready set is empty, so the count never needs rebuilding.
	ready        []uint64
	nReady       int
	over         int
	readyAt      []float64
	bound        []float64
	readyOnClass []float64
	predMax      []float64

	bestWorker []int
	bestStart  []float64
	bestMk     float64
	improved   bool

	nodes     int // nodes visited in the current run
	budget    int // node cap for the current run
	cut       bool
	cancelled bool

	// Per-depth scratch, one row per depth d: the top-Beam candidates at
	// cands[d*Beam:], each internal class's earliest-free worker at
	// free[d*len(classes):].
	cands []int
	free  []freeWorker
}

// freeWorker is one class's earliest-free worker and the time it frees up.
type freeWorker struct {
	w  int
	at float64
}

// Solve searches for a low-makespan static schedule of d on p.
func Solve(d *graph.DAG, p *platform.Platform, opt Options) (*Result, error) {
	return SolveContext(context.Background(), d, p, opt)
}

// cancelCheckStride is how many explored nodes pass between context polls:
// node expansion is cheap, so checking every node would be measurable, while
// a few hundred nodes expand in well under a millisecond.
const cancelCheckStride = 256

// SolveContext is Solve with cancellation: the branch-and-bound unwinds —
// including every worker goroutine — and returns ctx's error (dropping any
// incumbent) once the context is done.
func SolveContext(ctx context.Context, d *graph.DAG, p *platform.Platform, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cpsolve: search cancelled: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(d.Kinds()); err != nil {
		return nil, err
	}
	if opt.NodeBudget <= 0 {
		opt.NodeBudget = 200000
	}
	if opt.Beam <= 0 {
		opt.Beam = 2
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	bl, err := d.BottomLevels(func(t *graph.Task) float64 {
		return p.FastestTimeNB(t.Kind, t.NB)
	})
	if err != nil {
		return nil, err
	}
	pr := newProb(d, p, opt, bl)

	// Warm start.
	warm := opt.WarmStart
	if warm == nil {
		warm, err = sched.HEFT(d, p)
		if err != nil {
			return nil, err
		}
	}
	if err := warm.Validate(d, p); err != nil {
		return nil, fmt.Errorf("cpsolve: warm start invalid: %w", err)
	}
	ws, wm, err := replayComm(d, p, warm, opt.CommHopSec)
	if err != nil {
		return nil, err
	}
	g := newIncumbent(pr)
	g.mk = wm
	copy(g.worker, warm.Worker)
	copy(g.start, ws)
	g.publishMin(wm)

	return solveParallel(ctx, pr, g)
}

// buildGroups assigns every task its (kind, nb) cost group. The first
// NumKinds groups are the nb = 0 base groups; further tile sizes present in
// the DAG append one group per occurring kind, in the census's (nb, kind)
// order.
func (pr *prob) buildGroups() {
	pr.groupKind = make([]graph.Kind, graph.NumKinds)
	pr.groupNB = make([]int, graph.NumKinds)
	for k := graph.Kind(0); k < graph.NumKinds; k++ {
		pr.groupKind[k] = k
	}
	groupOf := map[[2]int]int32{}
	for _, g := range pr.d.Groups() {
		if g.NB == 0 {
			continue
		}
		groupOf[[2]int{g.NB, int(g.Kind)}] = int32(len(pr.groupKind))
		pr.groupKind = append(pr.groupKind, g.Kind)
		pr.groupNB = append(pr.groupNB, g.NB)
	}
	pr.taskGroup = make([]int32, len(pr.d.Tasks))
	for _, t := range pr.d.Tasks {
		if t.NB == 0 {
			pr.taskGroup[t.ID] = int32(t.Kind)
		} else {
			pr.taskGroup[t.ID] = groupOf[[2]int{t.NB, int(t.Kind)}]
		}
	}
}

func newProb(d *graph.DAG, p *platform.Platform, opt Options, bl []float64) *prob {
	pr := &prob{d: d, p: p, opt: opt, blFast: bl, nTasks: len(d.Tasks)}
	pr.buildGroups()
	classIdxOf := make([]int, len(p.Classes))
	for i := range classIdxOf {
		classIdxOf[i] = -1
	}
	for r := range p.Classes {
		if p.Classes[r].Count == 0 {
			continue
		}
		classIdxOf[r] = len(pr.classes)
		pr.classes = append(pr.classes, r)
		exec := make([]float64, len(pr.groupKind))
		for g := range exec {
			exec[g] = p.TimeNB(r, pr.groupKind[g], pr.groupNB[g])
		}
		pr.classExec = append(pr.classExec, exec)
		pr.workerOf = append(pr.workerOf, p.ClassWorkers(r))
	}
	pr.workerCi = make([]int, p.Workers())
	for w := range pr.workerCi {
		pr.workerCi[w] = classIdxOf[p.WorkerClass(w)]
	}
	pr.placements = make([][]placement, len(pr.groupKind))
	for g := range pr.placements {
		order := make([]int, len(pr.classes))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ea, eb := pr.classExec[order[a]][g], pr.classExec[order[b]][g]
			// Tie-break on the class index so the branch order is a total
			// order (sort.Slice is unstable).
			if ea != eb { //chollint:floateq
				return ea < eb
			}
			return order[a] < order[b]
		})
		for _, ci := range order {
			if exec := pr.classExec[ci][g]; !math.IsInf(exec, 1) {
				pr.placements[g] = append(pr.placements[g], placement{ci, exec})
			}
		}
	}
	pr.tail = make([]float64, pr.nTasks)
	pr.baseIndeg = make([]int, pr.nTasks)
	for _, t := range d.Tasks {
		pr.tail[t.ID] = bl[t.ID] - p.FastestTimeNB(t.Kind, t.NB)
		pr.baseIndeg[t.ID] = len(t.Pred)
		if len(t.Pred) == 0 {
			pr.roots = append(pr.roots, t.ID)
		}
	}
	pr.byRank = make([]int32, pr.nTasks)
	for i := range pr.byRank {
		pr.byRank[i] = int32(i)
	}
	sort.Slice(pr.byRank, func(a, b int) bool {
		ia, ib := pr.byRank[a], pr.byRank[b]
		// Tie-break on the exact stored bottom levels, then task ID.
		if bl[ia] != bl[ib] { //chollint:floateq
			return bl[ia] > bl[ib]
		}
		return ia < ib
	})
	pr.rank = make([]int32, pr.nTasks)
	for r, id := range pr.byRank {
		pr.rank[id] = int32(r)
	}
	return pr
}

// newSolver allocates one worker's search state, including the per-depth
// scratch that keeps node expansion allocation-free.
func newSolver(pr *prob, ctx context.Context) *solver {
	s := &solver{
		pr:         pr,
		ctx:        ctx,
		workerFree: make([]float64, pr.p.Workers()),
		finish:     make([]float64, pr.nTasks),
		worker:     make([]int, pr.nTasks),
		indeg:      make([]int, pr.nTasks),
		ready:      make([]uint64, (pr.nTasks+63)/64),
		readyAt:    make([]float64, pr.nTasks),
		bound:      make([]float64, pr.nTasks),
		bestWorker: make([]int, pr.nTasks),
		bestStart:  make([]float64, pr.nTasks),
		bestMk:     math.Inf(1),
		cands:      make([]int, (pr.nTasks+1)*pr.opt.Beam),
		free:       make([]freeWorker, (pr.nTasks+1)*len(pr.classes)),
	}
	if pr.opt.CommHopSec > 0 {
		s.readyOnClass = make([]float64, pr.nTasks*len(pr.classes))
		s.predMax = make([]float64, len(pr.classes))
	}
	return s
}

// reset returns the solver to the empty schedule.
func (s *solver) reset() {
	for i := range s.finish {
		s.finish[i] = -1
		s.worker[i] = -1
	}
	copy(s.indeg, s.pr.baseIndeg)
	clear(s.ready)
	s.nReady, s.over = 0, 0
	for _, id := range s.pr.roots {
		s.wake(id)
	}
	clear(s.workerFree)
}

// replayPath re-commits a subtree's decision path onto a freshly reset
// solver and returns the latest committed finish time. Paths are produced by
// the split phase from the same branch rule dfs uses, so no pruning or
// feasibility checks are re-applied.
func (s *solver) replayPath(path []step) float64 {
	maxFinish := 0.0
	for _, st := range path {
		id, ci := int(st.task), int(st.class)
		exec := s.pr.classExec[ci][s.pr.taskGroup[id]]
		df := s.readyOn(id, ci)
		w, wf := s.earliestFree(ci)
		start := wf
		if df > start {
			start = df
		}
		end := start + exec
		s.worker[id] = w
		s.finish[id] = end
		s.workerFree[w] = end
		s.commit(id)
		if end > maxFinish {
			maxFinish = end
		}
	}
	return maxFinish
}

// earliestFree returns the earliest-free worker of internal class ci
// (workers of a class are identical, so the earliest one is canonical).
//
//chol:hotpath
func (s *solver) earliestFree(ci int) (int, float64) {
	w, wf := -1, math.Inf(1)
	for _, cw := range s.pr.workerOf[ci] {
		if s.workerFree[cw] < wf {
			wf, w = s.workerFree[cw], cw
		}
	}
	return w, wf
}

// dfs explores scheduling decisions below the current state; depth is the
// number of committed tasks and maxFinish the latest committed end. The
// current run's node budget and incumbent are in the solver fields.
//
//chol:hotpath
func (s *solver) dfs(depth int, maxFinish float64) {
	if s.nodes >= s.budget {
		s.cut = true
		return
	}
	s.nodes++
	if s.nodes%cancelCheckStride == 0 && s.ctx.Err() != nil {
		s.cancelled = true
		return
	}
	if s.nReady == 0 {
		// All tasks scheduled (readiness propagation guarantees progress on
		// DAGs): record incumbent.
		if maxFinish < s.bestMk {
			s.bestMk = maxFinish
			s.improved = true
			copy(s.bestWorker, s.worker)
			for id := range s.pr.d.Tasks {
				ci := s.pr.workerCi[s.worker[id]]
				s.bestStart[id] = s.finish[id] - s.pr.classExec[ci][s.pr.taskGroup[id]]
			}
		}
		return
	}

	if s.boundPrunes(maxFinish) {
		return
	}

	// Every placement below starts from this node's state (each child is
	// undone before the next), so one earliest-free scan per class serves
	// all of them.
	nc := len(s.pr.classes)
	free := s.free[depth*nc : (depth+1)*nc]
	for ci := range free {
		free[ci].w, free[ci].at = s.earliestFree(ci)
	}
	cands := s.selectCands(depth)
	for _, id := range cands {
		for _, pl := range s.pr.placements[s.pr.taskGroup[id]] {
			ci, exec := pl.ci, pl.exec
			df := s.readyOn(id, ci)
			w, wf := free[ci].w, free[ci].at
			start := wf
			if df > start {
				start = df
			}
			end := start + exec
			if end+s.tailAfter(id) >= s.bestMk-pruneEps {
				continue // this placement cannot beat the incumbent
			}

			// Commit.
			s.worker[id] = w
			s.finish[id] = end
			s.workerFree[w] = end
			s.commit(id)

			mf := maxFinish
			if end > mf {
				mf = end
			}
			s.dfs(depth+1, mf)

			s.uncommit(id)
			s.workerFree[w] = wf
			s.finish[id] = -1
			s.worker[id] = -1

			if s.cancelled || s.cut {
				return
			}
		}
	}
}

// boundPrunes reports whether the node's makespan lower bound — the latest
// committed finish, or a ready task's dependency-ready time plus its
// critical path if later — cannot beat the incumbent. The max reaches the
// threshold exactly when one of its terms does, which over tracks for the
// ready tasks.
//
//chol:hotpath
func (s *solver) boundPrunes(maxFinish float64) bool {
	return maxFinish >= s.bestMk-pruneEps || s.over > 0
}

// addReady and dropReady insert and remove the task of rank r, keeping
// nReady and over in step with the bitset.
//
//chol:hotpath
func (s *solver) addReady(r int32) {
	s.ready[r>>6] |= 1 << (r & 63)
	s.nReady++
	if s.bound[r] >= s.bestMk-pruneEps {
		s.over++
	}
}

//chol:hotpath
func (s *solver) dropReady(r int32) {
	s.ready[r>>6] &^= 1 << (r & 63)
	s.nReady--
	if s.bound[r] >= s.bestMk-pruneEps {
		s.over--
	}
}

// selectCands writes the top-Beam ready tasks in branch-priority order
// (bottom level desc, then ID) into the depth's reusable candidate buffer:
// the ready bitset is indexed by that rank, so they are its first Beam set
// bits.
//
//chol:hotpath
func (s *solver) selectCands(depth int) []int {
	beam := s.pr.opt.Beam
	out := s.cands[depth*beam : depth*beam : (depth+1)*beam]
	for wi, word := range s.ready {
		for ; word != 0; word &= word - 1 {
			if len(out) == beam {
				return out
			}
			out = append(out, int(s.pr.byRank[wi<<6|bits.TrailingZeros64(word)]))
		}
	}
	return out
}

// wake adds task id, whose last predecessor just committed, to the ready
// set and fixes its dependency-ready times.
//
//chol:hotpath
func (s *solver) wake(id int) {
	m := 0.0
	for _, p := range s.pr.d.Tasks[id].Pred {
		if s.finish[p] > m {
			m = s.finish[p]
		}
	}
	s.readyAt[id] = m
	r := s.pr.rank[id]
	s.bound[r] = m + s.pr.blFast[id]
	s.addReady(r)
	if s.readyOnClass != nil {
		s.wakeComm(id)
	}
}

// wakeComm fixes task id's per-class ready times under the comm model: the
// latest predecessor finish on class ci itself, or one PCI hop after the
// latest on any other class. Finishes are strictly positive, so a zero
// predMax entry means "no predecessor on that class".
//
//chol:hotpath
func (s *solver) wakeComm(id int) {
	pm := s.predMax
	clear(pm)
	for _, p := range s.pr.d.Tasks[id].Pred {
		if f, ci := s.finish[p], s.pr.workerCi[s.worker[p]]; f > pm[ci] {
			pm[ci] = f
		}
	}
	hop := s.pr.opt.CommHopSec
	nc := len(pm)
	row := s.readyOnClass[id*nc : (id+1)*nc]
	for ci := range row {
		m := pm[ci]
		for c, f := range pm {
			if c != ci && f > 0 && f+hop > m {
				m = f + hop
			}
		}
		row[ci] = m
	}
}

// commit takes the just-placed task id out of the ready set and wakes the
// successors it was the last predecessor of.
//
//chol:hotpath
func (s *solver) commit(id int) {
	s.dropReady(s.pr.rank[id])
	for _, succ := range s.pr.d.Tasks[id].Succ {
		s.indeg[succ]--
		if s.indeg[succ] == 0 {
			s.wake(succ)
		}
	}
}

// uncommit is commit's exact inverse: successors whose indeg is still 0 were
// woken by id and leave the ready set, and id rejoins it with its readyAt
// unchanged (its predecessors are still committed). The caller restores id's
// worker, finish and workerFree entries.
//
//chol:hotpath
func (s *solver) uncommit(id int) {
	for _, succ := range s.pr.d.Tasks[id].Succ {
		if s.indeg[succ] == 0 {
			s.dropReady(s.pr.rank[succ])
		}
		s.indeg[succ]++
	}
	s.addReady(s.pr.rank[id])
}

// tailAfter returns the critical path length strictly below task id (its
// bottom level minus its own fastest time), precomputed at setup.
//
//chol:hotpath
func (s *solver) tailAfter(id int) float64 {
	return s.pr.tail[id]
}

// readyOn is ready task id's earliest dependency-ready time on internal
// class ci, as fixed at wake-up.
//
//chol:hotpath
func (s *solver) readyOn(id, ci int) float64 {
	if s.readyOnClass == nil {
		return s.readyAt[id]
	}
	return s.readyOnClass[id*len(s.pr.classes)+ci]
}

// replay evaluates a static schedule in the published CP model (no
// communication).
func replay(d *graph.DAG, p *platform.Platform, plan *sched.StaticSchedule) ([]float64, float64, error) {
	return replayComm(d, p, plan, 0)
}

// replayComm evaluates a static schedule in the CP model: each worker runs
// its tasks in planned-start order, starts gated by dependencies, with an
// optional one-hop delay on class-crossing dependencies (the data-aware
// extension). Returns actual starts and the makespan.
func replayComm(d *graph.DAG, p *platform.Platform, plan *sched.StaticSchedule, hop float64) ([]float64, float64, error) {
	type wq struct{ ids []int }
	queues := make([]wq, p.Workers())
	for id, w := range plan.Worker {
		queues[w].ids = append(queues[w].ids, id)
	}
	for w := range queues {
		ids := queues[w].ids
		sort.SliceStable(ids, func(a, b int) bool {
			// Tie-break on the exact stored plan times, then task ID.
			if plan.Start[ids[a]] != plan.Start[ids[b]] { //chollint:floateq
				return plan.Start[ids[a]] < plan.Start[ids[b]]
			}
			return ids[a] < ids[b]
		})
	}
	start := make([]float64, len(d.Tasks))
	finish := make([]float64, len(d.Tasks))
	done := make([]bool, len(d.Tasks))
	pos := make([]int, p.Workers())
	free := make([]float64, p.Workers())
	remaining := len(d.Tasks)
	for remaining > 0 {
		progress := false
		for w := range queues {
			for pos[w] < len(queues[w].ids) {
				id := queues[w].ids[pos[w]]
				t := d.Tasks[id]
				ok := true
				dep := 0.0
				for _, pr := range t.Pred {
					if !done[pr] {
						ok = false
						break
					}
					f := finish[pr]
					if hop > 0 && p.WorkerClass(plan.Worker[pr]) != p.WorkerClass(w) {
						f += hop
					}
					if f > dep {
						dep = f
					}
				}
				if !ok {
					break
				}
				st := math.Max(free[w], dep)
				en := st + p.TimeNB(p.WorkerClass(w), t.Kind, t.NB)
				start[id], finish[id] = st, en
				done[id] = true
				free[w] = en
				pos[w]++
				remaining--
				progress = true
			}
		}
		if !progress {
			return nil, 0, fmt.Errorf("cpsolve: static schedule deadlocks (cyclic worker order)")
		}
	}
	mk := 0.0
	for _, f := range finish {
		if f > mk {
			mk = f
		}
	}
	return start, mk, nil
}

// Replay exposes the CP-model evaluation of a static schedule (used by
// experiments to report "theoretical performance value with CP solution").
func Replay(d *graph.DAG, p *platform.Platform, plan *sched.StaticSchedule) (float64, error) {
	_, mk, err := replay(d, p, plan)
	return mk, err
}

// ReplayComm is Replay under the partial data-awareness model (one PCI hop
// per class-crossing dependency).
func ReplayComm(d *graph.DAG, p *platform.Platform, plan *sched.StaticSchedule, hop float64) (float64, error) {
	_, mk, err := replayComm(d, p, plan, hop)
	return mk, err
}
