package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/platform"
)

// StaticSchedule is a fully determined schedule: a worker and a planned
// start time per task. It is produced offline (by the HEFT list scheduler
// below or by the CP solver in internal/cpsolve) and can be injected into
// the runtime either completely (worker + order) or mapping-only.
type StaticSchedule struct {
	Worker      []int     // per task ID
	Start       []float64 // planned start times (defines per-worker order)
	EstMakespan float64
}

// Validate checks the schedule covers every task with a valid worker.
func (s *StaticSchedule) Validate(d *graph.DAG, p *platform.Platform) error {
	if len(s.Worker) != len(d.Tasks) || len(s.Start) != len(d.Tasks) {
		return fmt.Errorf("sched: static schedule covers %d tasks, DAG has %d",
			len(s.Worker), len(d.Tasks))
	}
	for id, w := range s.Worker {
		if w < 0 || w >= p.Workers() {
			return fmt.Errorf("sched: task %d on invalid worker %d", id, w)
		}
		t := d.Tasks[id]
		if math.IsInf(p.TimeNB(p.WorkerClass(w), t.Kind, t.NB), 1) {
			return fmt.Errorf("sched: task %d kind %v unrunnable on worker %d",
				id, t.Kind, w)
		}
	}
	return nil
}

// ClassOf returns the task→class mapping of the schedule, the input of the
// mapping-only injection experiment.
func (s *StaticSchedule) ClassOf(p *platform.Platform) map[int]int {
	m := make(map[int]int, len(s.Worker))
	for id, w := range s.Worker {
		m[id] = p.WorkerClass(w)
	}
	return m
}

// Scheduler wraps the static schedule as a Scheduler: tasks go exactly to
// their planned worker and drain in planned start order ("injecting the
// exact schedule obtained from CP solution in the simulation").
func (s *StaticSchedule) Scheduler(name string) Scheduler {
	return &staticSched{name: name, plan: s}
}

type staticSched struct {
	name string
	plan *StaticSchedule
	prev []int // per task: the task planned immediately before it on the same worker (−1: none)
}

func (s *staticSched) Name() string  { return s.name }
func (s *staticSched) Ordered() bool { return true }
func (s *staticSched) Init(d *graph.DAG, p *platform.Platform, seed int64) {
	if len(s.plan.Worker) != len(d.Tasks) {
		panic("sched: static schedule does not match DAG")
	}
	// Per-worker planned sequences, for exact-order gating. Indexed by
	// worker (not a map) so traversal order is deterministic.
	perWorker := make([][]int, p.Workers())
	for id, w := range s.plan.Worker {
		perWorker[w] = append(perWorker[w], id)
	}
	s.prev = make([]int, len(d.Tasks))
	for i := range s.prev {
		s.prev[i] = -1
	}
	for _, ids := range perWorker {
		sort.SliceStable(ids, func(a, b int) bool {
			// Tie-break on the exact stored plan times: both sides are the
			// same float64 slots, so bit-equality is the intended test.
			if s.plan.Start[ids[a]] != s.plan.Start[ids[b]] { //chollint:floateq
				return s.plan.Start[ids[a]] < s.plan.Start[ids[b]]
			}
			return ids[a] < ids[b]
		})
		for i := 1; i < len(ids); i++ {
			s.prev[ids[i]] = ids[i-1]
		}
	}
}

// MayStart enforces the planned per-worker order (sched.Gater).
func (s *staticSched) MayStart(t *graph.Task, completed func(int) bool) bool {
	p := s.prev[t.ID]
	return p == -1 || completed(p)
}
func (s *staticSched) Assign(v View, t *graph.Task) int { return s.plan.Worker[t.ID] }
func (s *staticSched) Priority(t *graph.Task) float64   { return -s.plan.Start[t.ID] }

// MappingScheduler returns a dmdas variant constrained to the schedule's
// CPU/GPU mapping but free to choose order and precise worker — the
// Section VI-B experiment showing that mapping alone is not enough.
func (s *StaticSchedule) MappingScheduler(p *platform.Platform) Scheduler {
	return NewDMDASWithHints("dmdas+cp-mapping", ClassMap(s.ClassOf(p)))
}

// OrderScheduler returns the complementary injection to MappingScheduler:
// the schedule's *ordering* (planned start times become queue priorities)
// with worker choice left to the dynamic minimum-completion-time rule.
// Together with full and mapping-only injection this completes the
// Section VI-B design space — it isolates how much of the CP solution's
// value lives in its "precise non-intuitive task ordering".
func (s *StaticSchedule) OrderScheduler() Scheduler {
	return &orderSched{plan: s, dm: dm{name: "dmda+cp-order", sorted: true, useComm: true}}
}

type orderSched struct {
	dm
	plan *StaticSchedule
}

func (s *orderSched) Init(d *graph.DAG, p *platform.Platform, seed int64) {
	if len(s.plan.Worker) != len(d.Tasks) {
		panic("sched: static schedule does not match DAG")
	}
}

func (s *orderSched) Priority(t *graph.Task) float64 { return -s.plan.Start[t.ID] }

// HEFT computes a classic static HEFT schedule (Topcuoglu et al.): tasks in
// decreasing upward rank (bottom level under platform-average execution
// times), each placed on the worker minimizing its earliest finish time.
// Communication is not modelled (matching the bounds' and CP's setting).
// It serves as the CP solver's warm start, as in the paper.
func HEFT(d *graph.DAG, p *platform.Platform) (*StaticSchedule, error) {
	bl, err := d.BottomLevels(func(t *graph.Task) float64 {
		return p.AverageTimeNB(t.Kind, t.NB)
	})
	if err != nil {
		return nil, err
	}
	order := make([]int, len(d.Tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return bl[order[a]] > bl[order[b]] })

	nW := p.Workers()
	workerFree := make([]float64, nW)
	start := make([]float64, len(d.Tasks))
	finish := make([]float64, len(d.Tasks))
	worker := make([]int, len(d.Tasks))
	scheduled := make([]bool, len(d.Tasks))

	for _, id := range order {
		t := d.Tasks[id]
		ready := 0.0
		for _, pr := range t.Pred {
			if !scheduled[pr] {
				// Upward-rank order is a topological order (rank strictly
				// decreases along edges), so this cannot happen.
				return nil, fmt.Errorf("sched: HEFT order violated dependency %d→%d", pr, id)
			}
			if finish[pr] > ready {
				ready = finish[pr]
			}
		}
		bestW, bestEFT := -1, math.Inf(1)
		for w := 0; w < nW; w++ {
			exec := p.TimeNB(p.WorkerClass(w), t.Kind, t.NB)
			if math.IsInf(exec, 1) {
				continue
			}
			eft := math.Max(workerFree[w], ready) + exec
			if eft < bestEFT {
				bestEFT, bestW = eft, w
			}
		}
		if bestW == -1 {
			return nil, fmt.Errorf("sched: task %s runnable nowhere", t.Name())
		}
		worker[id] = bestW
		start[id] = bestEFT - p.TimeNB(p.WorkerClass(bestW), t.Kind, t.NB)
		finish[id] = bestEFT
		workerFree[bestW] = bestEFT
		scheduled[id] = true
	}
	mk := 0.0
	for _, f := range finish {
		if f > mk {
			mk = f
		}
	}
	return &StaticSchedule{Worker: worker, Start: start, EstMakespan: mk}, nil
}
