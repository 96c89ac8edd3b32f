package simulator

import (
	"math"

	"repro/internal/sched"
)

// LaneBatch owns the mutable state of W seed-lanes advanced by one event
// loop, laid out structure-of-arrays: every lane's dense per-run arrays —
// worker clocks, tile locations, LRU stamps, pin counts, residency
// positions, dependency counts and the precomputed jitter draws — are
// carved from four shared lane-major slabs (one backing allocation per
// element type), so lane i's state is one contiguous stripe and the whole
// batch costs four allocations instead of a dozen per lane. Queue rings, the event heap and the Result stay
// per-lane: they grow dynamically and escape, respectively.
//
// A zero LaneBatch is ready; Bind sizes it for a (Prep, lane-count) pair and
// may be called again to rebind the batch (slabs and per-lane backings are
// reused when their capacity suffices — the replay.Pool contract). A
// LaneBatch must not be shared by concurrent shards.
type LaneBatch struct {
	pp   *Prep
	runs []LaneRun

	f64   []float64
	bools []bool
	i32   []int32
	ints  []int
}

// LaneRun is one lane of a batch: a full simulation advanced event by event
// under the driver's control instead of a closed loop. The step sequence
// reuses the exact serial transition functions (processEvent/finalize), so a
// lane's Result is bit-identical to Prep.Run with the same scheduler,
// options and jitter draws — a structural property, not a tolerance.
type LaneRun struct {
	st       state
	pp       *Prep
	jitBuf   []float64
	startBuf []int32
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Bind sizes the batch for `lanes` lanes over pp and carves each lane's
// dense arrays from the lane-major slabs. Existing backing memory is reused
// whenever large enough.
func (lb *LaneBatch) Bind(pp *Prep, lanes int) {
	n, nW, nNodes, nTiles := pp.nTasks, len(pp.wClass), pp.nNodes, pp.nTiles
	f64L := 2*nW + nNodes + 2*n          // workerFree, estFree, linkFree, dataReady, jitter row
	boolL := 2*nW + n + nTiles*nNodes    // executing, workerDirty, doneTask, loc
	i32L := nTiles + 2*nNodes*nTiles + n // locCount, pins, residentPos, indeg
	intL := nNodes * nTiles              // lastUse

	lb.pp = pp
	lb.f64 = growF64(lb.f64, lanes*f64L)
	lb.bools = growBools(lb.bools, lanes*boolL)
	lb.i32 = growI32(lb.i32, lanes*i32L)
	lb.ints = growInts(lb.ints, lanes*intL)
	if cap(lb.runs) < lanes {
		runs := make([]LaneRun, lanes)
		// Keep the old lanes' queue rings and event heaps: they are not
		// slab-carved and survive a rebind.
		copy(runs, lb.runs)
		lb.runs = runs
	}
	lb.runs = lb.runs[:lanes]

	for i := range lb.runs {
		lr := &lb.runs[i]
		lr.pp = pp
		st := &lr.st

		off := i * f64L
		st.workerFree = lb.f64[off : off+nW : off+nW]
		off += nW
		st.estFree = lb.f64[off : off+nW : off+nW]
		off += nW
		st.linkFree = lb.f64[off : off+nNodes : off+nNodes]
		off += nNodes
		st.dataReady = lb.f64[off : off+n : off+n]
		off += n
		lr.jitBuf = lb.f64[off : off+n : off+n]

		off = i * boolL
		st.executing = lb.bools[off : off+nW : off+nW]
		off += nW
		st.workerDirty = lb.bools[off : off+nW : off+nW]
		off += nW
		st.doneTask = lb.bools[off : off+n : off+n]
		off += n
		st.loc = lb.bools[off : off+nTiles*nNodes : off+nTiles*nNodes]

		off = i * i32L
		st.locCount = lb.i32[off : off+nTiles : off+nTiles]
		off += nTiles
		st.pins = lb.i32[off : off+nNodes*nTiles : off+nNodes*nTiles]
		off += nNodes * nTiles
		st.residentPos = lb.i32[off : off+nNodes*nTiles : off+nNodes*nTiles]
		off += nNodes * nTiles
		st.indeg = lb.i32[off : off+n : off+n]

		off = i * intL
		st.lastUse = lb.ints[off : off+intL : off+intL]
	}
}

// Lanes returns the bound lane count.
func (lb *LaneBatch) Lanes() int { return len(lb.runs) }

// Release drops every retained backing array, returning the batch to its
// zero state; the next Bind re-allocates right-sized slabs. replay.Pool
// calls it when a pooled batch exceeds its high-water cap.
func (lb *LaneBatch) Release() {
	*lb = LaneBatch{}
}

// Lane returns lane i's run handle, valid until the next Bind.
func (lb *LaneBatch) Lane(i int) *LaneRun { return &lb.runs[i] }

// Footprint approximates the batch's retained backing memory in bytes:
// the four slabs plus every lane's queue rings and event heap.
func (lb *LaneBatch) Footprint() int {
	b := 8*cap(lb.f64) + cap(lb.bools) + 4*cap(lb.i32) + 8*cap(lb.ints)
	for i := range lb.runs {
		st := &lb.runs[i].st
		b += 32 * cap(st.events) // sizeof(event)
		for w := range st.queues {
			b += 24 * cap(st.queues[w].items) // sizeof(queueEntry)
		}
		b += 4 * cap(lb.runs[i].startBuf)
	}
	return b
}

// Reset binds the lane to a (scheduler, options) run, reusing the carved
// arrays. With skipInit the scheduler is not re-Init'ed: legal only when the
// instance is shared across the batch under the proven
// SeedInvariant+PureAssign contracts (sched.Shareable) and was Init'ed once
// by the caller.
func (lr *LaneRun) Reset(s sched.Scheduler, opt Options, skipInit bool) {
	lr.st.reset(lr.pp, s, opt)
	if !skipInit {
		s.Init(lr.pp.d, lr.pp.p, opt.Seed)
	}
}

// SetJitterRow primes the lane with caller-computed jitter draws (one per
// task ID, from JitterRow — bit-identical to the serial per-task generator
// draws of jitter.go), copied into the slab-carved row, and switches the
// lane's jitter model onto it. The caller owns the source slice. Must be
// called before Begin — root starts consume draws. Replay computes rows once
// up front for grouping and hands each representative its row through here.
func (lr *LaneRun) SetJitterRow(row []float64) {
	copy(lr.jitBuf, row)
	lr.st.jitU = lr.jitBuf
}

// RecordStarts makes the lane record task IDs in start order, for
// divergence-point search against follower lanes' jitter rows.
func (lr *LaneRun) RecordStarts() {
	if cap(lr.startBuf) < lr.pp.nTasks {
		lr.startBuf = make([]int32, lr.pp.nTasks)
	}
	lr.st.startTrace = lr.startBuf[:lr.pp.nTasks]
}

// StartOrder returns the recorded task IDs in start order (length Started).
func (lr *LaneRun) StartOrder() []int32 { return lr.st.startTrace[:lr.st.started] }

// Begin performs the root assignments and first ready scan. Not used when
// resuming from a Snapshot — the snapshot already holds in-flight events.
func (lr *LaneRun) Begin() { lr.st.start() }

// Step advances the lane by one completion event and reports whether events
// remain. The advance is the serial loop body verbatim.
//
//chol:hotpath lane advance; one completion event of one lane per call
func (lr *LaneRun) Step() bool {
	st := &lr.st
	if len(st.events) == 0 {
		return false
	}
	st.processEvent()
	return len(st.events) > 0
}

// Pending reports whether the lane still has in-flight events.
func (lr *LaneRun) Pending() bool { return len(lr.st.events) > 0 }

// Done returns the number of completion events processed so far.
func (lr *LaneRun) Done() int { return lr.st.done }

// Started returns the number of task starts so far (jitter draws consumed).
func (lr *LaneRun) Started() int { return lr.st.started }

// Finalize completes the drained lane and returns its Result.
func (lr *LaneRun) Finalize() (*Result, error) { return lr.st.finalize() }

// Snapshot captures the lane's full mutable state at the current event
// boundary; Restore on any lane of the same Prep resumes from it bit-exactly.
func (lr *LaneRun) Snapshot() *Snapshot { return lr.st.captureSnapshot() }

// Restore loads a snapshot into a freshly Reset lane (same Prep). The lane's
// own jitter row is kept: restoring a representative's snapshot under a
// follower's row is exactly the lazy split — the shared prefix is adopted,
// the divergent suffix resimulated with the follower's draws.
func (lr *LaneRun) Restore(sn *Snapshot) { lr.st.restore(sn) }

// FutureJitterEqual reports whether b would consume bit-identical jitter
// draws for every task lr has not started yet. Callers pair it with
// StateDigest equality (same started set, same everything else) to prove two
// lanes share their entire future. Unprimed lanes (jitter off) trivially
// agree with each other.
func (lr *LaneRun) FutureJitterEqual(b *LaneRun) bool {
	ju, jv := lr.st.jitU, b.st.jitU
	if ju == nil || jv == nil {
		return ju == nil && jv == nil
	}
	for id := 0; id < lr.st.nTasks; id++ {
		if lr.st.res.Worker[id] == -1 && ju[id] != jv[id] { //chollint:floateq bit-identity gate
			return false
		}
	}
	return true
}

// laneDigest is an FNV-64a-style word folder for state digests.
type laneDigest struct{ h uint64 }

func (d *laneDigest) u64(v uint64) {
	d.h ^= v
	d.h *= 1099511628211
}

func (d *laneDigest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *laneDigest) i(v int)       { d.u64(uint64(int64(v))) }
func (d *laneDigest) b(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

// StateDigest folds every piece of mutable lane state — clocks, queues,
// events, tile locations, LRU stamps, pins, partial results — into one
// 64-bit value. Two live lanes of the same batch with equal digests are in
// bit-identical states: with a shared scheduler instance and
// FutureJitterEqual draws their remaining simulation cannot differ, which is
// the mid-run re-merge criterion the replay lane executor keys on. Heap and
// residency arrays are folded in layout order — conservative: a layout
// difference that happens to be behaviorally neutral reads as a mismatch,
// never the reverse.
func (lr *LaneRun) StateDigest() uint64 {
	st := &lr.st
	d := laneDigest{h: 14695981039346656037}
	d.i(st.done)
	d.i(st.decisions)
	d.i(st.started)
	d.i(st.seq)
	d.f64(st.now)
	for w := range st.queues {
		q := &st.queues[w]
		n := q.size()
		d.i(n)
		for i := 0; i < n; i++ {
			e := q.at(i)
			d.i(e.task.ID)
			d.f64(e.prio)
			d.i(e.seq)
		}
	}
	for _, v := range st.executing {
		d.b(v)
	}
	for _, v := range st.workerFree {
		d.f64(v)
	}
	for _, v := range st.estFree {
		d.f64(v)
	}
	for _, v := range st.workerDirty {
		d.b(v)
	}
	for _, v := range st.dataReady {
		d.f64(v)
	}
	for _, v := range st.doneTask {
		d.b(v)
	}
	for _, v := range st.linkFree {
		d.f64(v)
	}
	for _, v := range st.loc {
		d.b(v)
	}
	for _, v := range st.locCount {
		d.u64(uint64(uint32(v)))
	}
	for _, v := range st.lastUse {
		d.i(v)
	}
	for _, v := range st.pins {
		d.u64(uint64(uint32(v)))
	}
	for node := range st.residentTiles {
		rs := st.residentTiles[node]
		d.i(len(rs))
		for _, v := range rs {
			d.u64(uint64(uint32(v)))
		}
	}
	d.i(len(st.events))
	for i := range st.events {
		e := &st.events[i]
		d.f64(e.time)
		d.i(e.seq)
		d.i(e.worker)
		d.i(e.task.ID)
	}
	for _, v := range st.indeg {
		d.u64(uint64(uint32(v)))
	}
	r := st.res
	d.f64(r.TransferSec)
	d.i(r.TransferCount)
	d.i(r.Evictions)
	d.i(r.Writebacks)
	d.f64(r.StallSec)
	for id := range r.Start {
		d.f64(r.Start[id])
		d.f64(r.End[id])
		d.i(r.Worker[id])
	}
	for w := range r.BusySec {
		d.f64(r.BusySec[w])
	}
	return d.h
}
