package simulator

import (
	"context"
	"fmt"

	"repro/internal/sched"
)

// Clone returns a deep copy of the result: mutating one never affects the
// other. replay uses it to materialize per-seed Results from a deduplicated
// lane and to serve no-divergence delta queries from the base recording.
func (r *Result) Clone() *Result {
	c := *r
	c.Start = append([]float64(nil), r.Start...)
	c.End = append([]float64(nil), r.End...)
	c.Worker = append([]int(nil), r.Worker...)
	c.BusySec = append([]float64(nil), r.BusySec...)
	c.IdleSec = append([]float64(nil), r.IdleSec...)
	return &c
}

// QueueSnapshot is one worker queue, head-normalized: Tasks[i]/Prio[i]/Seq[i]
// is the i-th entry from the queue's front.
type QueueSnapshot struct {
	Tasks []int32
	Prio  []float64
	Seq   []int
}

// EventSnapshot is one in-flight completion event.
type EventSnapshot struct {
	Time   float64
	Seq    int
	Worker int
	Task   int32
}

// Snapshot is a bit-exact copy of every piece of mutable simulation state at
// an event-loop boundary: restore + loop reproduces the original run's
// suffix exactly (the checkpoint invariant tests compare field by field).
// Snapshots are tied to the Prep that produced them; resuming one under a
// different Prep is undefined.
type Snapshot struct {
	Done      int // completion events processed
	Decisions int // scheduler Assign calls made
	Started   int // task starts (jitter draws consumed)
	Seq       int
	Now       float64

	Queues      []QueueSnapshot
	Executing   []bool
	WorkerFree  []float64
	EstFree     []float64
	WorkerDirty []bool
	DataReady   []float64
	DoneTask    []bool
	LinkFree    []float64

	Loc      []bool
	LocCount []int32
	LastUse  []int
	Pins     []int32
	Resident [][]int32 // per node, in residency order (order is load-bearing for nothing, but copied exactly)

	Events []EventSnapshot
	Indeg  []int32

	Res *Result // partial result accumulated so far
}

// snapshot appends a Snapshot of the current state to st.snaps.
func (st *state) snapshot() {
	st.snaps = append(st.snaps, st.captureSnapshot())
}

// captureSnapshot builds a Snapshot of the current state.
func (st *state) captureSnapshot() *Snapshot {
	sn := &Snapshot{
		Done:      st.done,
		Decisions: st.decisions,
		Started:   st.started,
		Seq:       st.seq,
		Now:       st.now,

		Executing:   append([]bool(nil), st.executing...),
		WorkerFree:  append([]float64(nil), st.workerFree...),
		EstFree:     append([]float64(nil), st.estFree...),
		WorkerDirty: append([]bool(nil), st.workerDirty...),
		DataReady:   append([]float64(nil), st.dataReady...),
		DoneTask:    append([]bool(nil), st.doneTask...),
		LinkFree:    append([]float64(nil), st.linkFree...),

		Loc:      append([]bool(nil), st.loc...),
		LocCount: append([]int32(nil), st.locCount...),
		LastUse:  append([]int(nil), st.lastUse...),
		Pins:     append([]int32(nil), st.pins...),

		Indeg: append([]int32(nil), st.indeg...),
		Res:   st.res.Clone(),
	}
	sn.Queues = make([]QueueSnapshot, len(st.queues))
	for w := range st.queues {
		q := &st.queues[w]
		n := q.size()
		qs := QueueSnapshot{
			Tasks: make([]int32, n),
			Prio:  make([]float64, n),
			Seq:   make([]int, n),
		}
		for i := 0; i < n; i++ {
			e := q.at(i)
			qs.Tasks[i] = int32(e.task.ID)
			qs.Prio[i] = e.prio
			qs.Seq[i] = e.seq
		}
		sn.Queues[w] = qs
	}
	sn.Resident = make([][]int32, len(st.residentTiles))
	for node := range st.residentTiles {
		sn.Resident[node] = append([]int32(nil), st.residentTiles[node]...)
	}
	sn.Events = make([]EventSnapshot, len(st.events))
	for i, e := range st.events {
		sn.Events[i] = EventSnapshot{Time: e.time, Seq: e.seq, Worker: e.worker, Task: int32(e.task.ID)}
	}
	return sn
}

// restore loads a snapshot into an already-reset state. The heap array is
// restored verbatim (it satisfied the heap property when captured), and the
// queues are rebuilt head-normalized — logically identical content, so every
// subsequent pop/insert behaves as in the original run.
func (st *state) restore(sn *Snapshot) {
	st.done = sn.Done
	st.decisions = sn.Decisions
	st.started = sn.Started
	st.seq = sn.Seq
	st.now = sn.Now

	copy(st.executing, sn.Executing)
	copy(st.workerFree, sn.WorkerFree)
	copy(st.estFree, sn.EstFree)
	copy(st.workerDirty, sn.WorkerDirty)
	copy(st.dataReady, sn.DataReady)
	copy(st.doneTask, sn.DoneTask)
	copy(st.linkFree, sn.LinkFree)

	copy(st.loc, sn.Loc)
	copy(st.locCount, sn.LocCount)
	copy(st.lastUse, sn.LastUse)
	copy(st.pins, sn.Pins)

	copy(st.indeg, sn.Indeg)

	for w := range st.queues {
		q := &st.queues[w]
		q.head = 0
		q.items = q.items[:0]
		qs := &sn.Queues[w]
		for i := range qs.Tasks {
			q.items = append(q.items, queueEntry{
				task: st.d.Tasks[qs.Tasks[i]], prio: qs.Prio[i], seq: qs.Seq[i]})
		}
	}
	for node := range st.residentTiles {
		st.residentTiles[node] = append(st.residentTiles[node][:0], sn.Resident[node]...)
		// residentPos is derived state: rebuild it rather than snapshot it.
		for i, ti := range sn.Resident[node] {
			st.residentPos[node*st.nTiles+int(ti)] = int32(i)
		}
	}
	st.events = st.events[:0]
	for _, e := range sn.Events {
		st.events = append(st.events, event{
			time: e.Time, seq: e.Seq, worker: e.Worker, task: st.d.Tasks[e.Task]})
	}

	r := sn.Res
	st.res.MakespanSec = r.MakespanSec
	st.res.TransferSec = r.TransferSec
	st.res.TransferCount = r.TransferCount
	st.res.Evictions = r.Evictions
	st.res.Writebacks = r.Writebacks
	st.res.StallSec = r.StallSec
	copy(st.res.Start, r.Start)
	copy(st.res.End, r.End)
	copy(st.res.Worker, r.Worker)
	copy(st.res.BusySec, r.BusySec)
	copy(st.res.IdleSec, r.IdleSec)
}

// Recording is the output of a recorded run: the final Result, the tasks in
// scheduler-decision order, and periodic state snapshots delta replay can
// resume from.
type Recording struct {
	Result    *Result
	Decisions []int32     // task IDs in Assign order
	Snaps     []*Snapshot // ascending Done/Decisions order
	Opt       Options     // options of the recorded run
	Ordered   bool        // scheduler's Ordered() at record time
	Stride    int         // completion events between snapshots
}

// SnapshotBefore returns the latest snapshot whose decision count does not
// exceed dec, or nil if even the first snapshot is past it.
func (rec *Recording) SnapshotBefore(dec int) *Snapshot {
	var best *Snapshot
	for _, sn := range rec.Snaps {
		if sn.Decisions > dec {
			break
		}
		best = sn
	}
	return best
}

// RunRecorded is Run with checkpointing: it additionally captures the
// decision trace and a state snapshot every stride completion events
// (including one before the first event). Recording never changes the
// schedule — the returned Result is bit-identical to Run's.
func (pp *Prep) RunRecorded(ctx context.Context, s sched.Scheduler, opt Options, stride int, a *Arena) (*Recording, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("simulator: run cancelled: %w", err)
	}
	if opt.Recorder != nil {
		return nil, fmt.Errorf("simulator: RunRecorded does not compose with Options.Recorder")
	}
	if stride < 1 {
		stride = 1
	}
	if a == nil {
		a = &Arena{}
	}
	st := &a.st
	st.reset(pp, s, opt)
	st.decTrace = make([]int32, pp.nTasks)
	st.snapEvery = stride
	s.Init(pp.d, pp.p, opt.Seed)
	st.start()
	res, err := st.loop(ctx)
	if err != nil {
		return nil, err
	}
	rec := &Recording{
		Result:    res,
		Decisions: append([]int32(nil), st.decTrace[:st.decisions]...),
		Snaps:     st.snaps,
		Opt:       opt,
		Ordered:   st.ordered,
		Stride:    stride,
	}
	// Detach the snapshots from the arena so a reuse cannot alias them.
	st.snaps = nil
	st.decTrace = nil
	return rec, nil
}

// Resume continues a run from a snapshot under a freshly Init'ed scheduler,
// replaying only the suffix. The caller is responsible for the semantic
// precondition (the variant's first differing decision lies at or after the
// snapshot; see replay.Base.Delta for the conservative gate) — Resume itself
// restores state bit-exactly and reuses the ordinary event loop.
func (pp *Prep) Resume(ctx context.Context, s sched.Scheduler, opt Options, sn *Snapshot, a *Arena) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("simulator: run cancelled: %w", err)
	}
	if opt.Recorder != nil {
		return nil, fmt.Errorf("simulator: Resume does not compose with Options.Recorder")
	}
	if sn == nil {
		return nil, fmt.Errorf("simulator: Resume requires a snapshot")
	}
	if a == nil {
		a = &Arena{}
	}
	st := &a.st
	st.reset(pp, s, opt)
	s.Init(pp.d, pp.p, opt.Seed)
	st.restore(sn)
	return st.loop(ctx)
}
