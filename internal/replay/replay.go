// Package replay multiplies sweep throughput by exploiting the simulator's
// determinism. Three mechanisms compose, each bit-identical to the serial
// event loop by construction (they reuse the same loop) and by enforcement
// (the equivalence suite in this package digests every path against
// simulator.RunContext):
//
//   - batched multi-seed replay (Run, Seeds): jobs sharing a (DAG, platform)
//     share one simulator.Prep — the DAG census, dependency counts and cost
//     tables are derived once per pair instead of once per run — and jobs
//     of one configuration advance together through the lane executor
//     (lanes.go). When the scheduler declares seed invariance and the
//     jitter model is off, all seeds of one configuration collapse to a
//     single simulation whose Result is cloned per seed (the decisions
//     genuinely cannot differ);
//   - delta replay (delta.go): sweep jobs differing in one knob resume from
//     a checkpoint of the base run just before the first decision the knob
//     can affect, resimulating only the suffix;
//   - arena reuse: per-run dense state is pooled and recycled across jobs,
//     so a thousand-job sweep allocates per-run state a handful of times.
//
// Correctness contract: replay is valid only if it is digest-identical to
// serial (see Digest); approximate equality is a bug, not a tolerance.
//
// The marker claims this package keys on (sched.SeedInvariant for the
// seed-collapse, sched.PureAssign for delta resumption) are not trusted:
// chollint's puremark analyzer proves each one against interprocedural
// effect summaries of Assign/Priority/Init, and the registry drift test in
// internal/analysis cross-checks the static verdicts against runtime digest
// behavior for every registered scheduler family.
package replay

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simulator"
	"repro/internal/sweep"
)

// Digest folds every observable field of a Result into one FNV-64a value —
// the equality the replay contract is stated in. Two Results are "the same
// schedule" iff their digests match bit for bit.
func Digest(r *simulator.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	i := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	f(r.MakespanSec)
	f(r.TransferSec)
	i(r.TransferCount)
	i(r.Evictions)
	i(r.Writebacks)
	f(r.StallSec)
	for id := range r.Start {
		f(r.Start[id])
		f(r.End[id])
		i(r.Worker[id])
	}
	for w := range r.BusySec {
		f(r.BusySec[w])
		f(r.IdleSec[w])
	}
	return h.Sum64()
}

// Default high-water caps for pooled per-run state: an arena or lane batch
// returned with more retained backing memory than its cap is released to
// zero before pooling, so one oversized sweep cannot pin its peak
// allocation for the rest of the process. The caps are far above any
// steady-state workload (a P=64 arena retains well under 1 MiB).
const (
	DefaultArenaCapBytes = 4 << 20  // per pooled Arena
	DefaultBatchCapBytes = 64 << 20 // per pooled LaneBatch
)

// Pool recycles simulator arenas and lane batches across sweep jobs. Safe
// for concurrent use; the zero value is ready. Arenas returned after failed
// or cancelled runs are fine to reuse — every run fully resets the arena
// before touching it.
type Pool struct {
	mu      sync.Mutex
	free    []*simulator.Arena
	batches []*simulator.LaneBatch

	// ArenaCapBytes and BatchCapBytes bound the backing memory one pooled
	// arena/batch may retain (the high-water trim on Put): 0 picks the
	// defaults above, negative disables trimming.
	ArenaCapBytes int
	BatchCapBytes int
}

// Get returns a pooled arena, or a fresh one when the pool is empty.
func (p *Pool) Get() *simulator.Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return a
	}
	return &simulator.Arena{}
}

// Put returns an arena to the pool, trimming it first when its retained
// footprint exceeds the high-water cap.
func (p *Pool) Put(a *simulator.Arena) {
	if a == nil {
		return
	}
	p.mu.Lock()
	capB := p.ArenaCapBytes
	if capB == 0 {
		capB = DefaultArenaCapBytes
	}
	if capB > 0 && a.Footprint() > capB {
		a.Release()
	}
	p.free = append(p.free, a)
	p.mu.Unlock()
}

// GetBatch returns a pooled lane batch, or a fresh one when none is free.
func (p *Pool) GetBatch() *simulator.LaneBatch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.batches); n > 0 {
		lb := p.batches[n-1]
		p.batches[n-1] = nil
		p.batches = p.batches[:n-1]
		return lb
	}
	return &simulator.LaneBatch{}
}

// PutBatch returns a lane batch to the pool, trimming it first when its
// retained footprint exceeds the high-water cap.
func (p *Pool) PutBatch(lb *simulator.LaneBatch) {
	if lb == nil {
		return
	}
	p.mu.Lock()
	capB := p.BatchCapBytes
	if capB == 0 {
		capB = DefaultBatchCapBytes
	}
	if capB > 0 && lb.Footprint() > capB {
		lb.Release()
	}
	p.batches = append(p.batches, lb)
	p.mu.Unlock()
}

// Job is one simulation of a batch. Sched constructs a fresh scheduler per
// invocation — instances are stateful across Init/Assign and must not be
// shared between runs. For deduplication the constructed scheduler's Name()
// must identify its whole policy configuration (the sched.SeedInvariant
// contract); every registered scheduler does.
type Job struct {
	D     *graph.DAG
	P     *platform.Platform
	Sched func() sched.Scheduler
	Opt   simulator.Options
}

// jitterActive reports whether the run's execution times depend on the seed
// through the overhead/jitter model.
func jitterActive(p *platform.Platform, opt simulator.Options) bool {
	return opt.Overhead && p.Overhead.JitterFrac != 0
}

// unit is one planned piece of a batch: the job indices one pp.Run (a
// single) or one lane-executor call (a group of two or more) answers.
type unit struct {
	pp   *simulator.Prep
	jobs []int
}

// plan groups the jobs by (Prep, scheduler name, options modulo seed), in
// first-appearance order. Jobs sharing a (DAG, platform) pair by pointer
// share one Prep. A job with a Recorder or Probe is always a unit of one:
// it must genuinely simulate and emit its own events.
func plan(jobs []Job) ([]unit, error) {
	type pairKey struct {
		d *graph.DAG
		p *platform.Platform
	}
	type groupKey struct {
		pp    *simulator.Prep
		sched string
		opt   simulator.Options // Seed zeroed
	}
	preps := make(map[pairKey]*simulator.Prep)
	groups := make(map[groupKey]int) // index into units
	var units []unit
	for i := range jobs {
		j := &jobs[i]
		pk := pairKey{j.D, j.P}
		pp, ok := preps[pk]
		if !ok {
			var err error
			if pp, err = simulator.Prepare(j.D, j.P); err != nil {
				return nil, fmt.Errorf("replay: job %d: %w", i, err)
			}
			preps[pk] = pp
		}
		if j.Opt.Recorder == nil && j.Opt.Probe == nil {
			opt := j.Opt
			opt.Seed = 0
			gk := groupKey{pp: pp, sched: j.Sched().Name(), opt: opt}
			if u, dup := groups[gk]; dup {
				units[u].jobs = append(units[u].jobs, i)
				continue
			}
			groups[gk] = len(units)
		}
		units = append(units, unit{pp: pp, jobs: []int{i}})
	}
	return units, nil
}

// Run executes the jobs and returns their Results in job order, each
// bit-identical to what simulator.RunContext would produce for that job.
// Up to `workers` units run concurrently. A unit of one runs as one pp.Run
// on a pooled arena; a group of two or more goes to the lane executor
// (lanes.go), which collapses provably identical seeds to one run plus
// clones, merges lanes mid-run, and gives a scheduler that is not seed
// invariant a fresh instance per lane. A nil pool uses a private one scoped
// to this call.
//
// A non-nil probe receives SourceReplay frames: Done counts finished jobs
// against Total, DedupHits the jobs answered with an up-front clone,
// LaneMerges the lanes that re-merged mid-run. The stream's Done is
// monotone (emissions serialize on a mutex) though the completion order of
// concurrent units is scheduling-dependent; the Final frame carries the
// batch totals.
func Run(ctx context.Context, jobs []Job, workers int, pool *Pool, probe *obs.Probe) ([]*simulator.Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	units, err := plan(jobs)
	if err != nil {
		return nil, err
	}
	if pool == nil {
		pool = &Pool{}
	}
	prog := &progress{probe: probe, total: int64(len(jobs))}
	results := make([]*simulator.Result, len(jobs))
	// Units write disjoint results slots; MapContext supplies ordering and
	// first-error semantics.
	_, err = sweep.MapContext(ctx, units, workers, func(u unit) (struct{}, error) {
		if len(u.jobs) == 1 {
			j := &jobs[u.jobs[0]]
			a := pool.Get()
			r, runErr := u.pp.Run(ctx, j.Sched(), j.Opt, a)
			pool.Put(a)
			if runErr != nil {
				return struct{}{}, runErr
			}
			results[u.jobs[0]] = r
			prog.add(1, 0, 0)
			return struct{}{}, nil
		}
		j0 := &jobs[u.jobs[0]]
		specs := make([]laneSpec, len(u.jobs))
		for gi, i := range u.jobs {
			specs[gi] = laneSpec{seed: jobs[i].Opt.Seed, mk: jobs[i].Sched}
		}
		fillJitterRows(u.pp, j0.P, j0.Opt, specs)
		rs, runErr := runLanes(ctx, u.pp, j0.Opt, specs, workers, pool, laneOptions{}, prog, &laneStats{})
		if runErr != nil {
			return struct{}{}, runErr
		}
		for gi, i := range u.jobs {
			results[i] = rs[gi]
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	prog.finish()
	return results, nil
}

// Seeds runs one (DAG, platform, scheduler, options) configuration across
// the given seeds and returns per-seed Results in seed order, bit-identical
// to looping simulator.RunContext over the seeds. It is Run over one job
// per seed.
func Seeds(ctx context.Context, d *graph.DAG, p *platform.Platform, mk func() sched.Scheduler, seeds []int64, opt simulator.Options, workers int, pool *Pool, probe *obs.Probe) ([]*simulator.Result, error) {
	if len(seeds) == 1 {
		// A batch of one is the serial path itself: no job slice and no
		// planning, so it allocates what simulator.RunContext does plus
		// its result slice.
		opt.Seed = seeds[0]
		r, err := simulator.RunContext(ctx, d, p, mk(), opt)
		if err != nil {
			return nil, err
		}
		if probe != nil {
			probe.Emit(obs.Frame{Source: obs.SourceReplay, Done: 1, Total: 1, Final: true})
		}
		return []*simulator.Result{r}, nil
	}
	jobs := make([]Job, len(seeds))
	for i, s := range seeds {
		o := opt
		o.Seed = s
		jobs[i] = Job{D: d, P: p, Sched: mk, Opt: o}
	}
	return Run(ctx, jobs, workers, pool, probe)
}

// progress serializes one batch's probe frames. Dedup clones count as done
// only at the Final frame, when the batch is whole.
type progress struct {
	mu     sync.Mutex
	probe  *obs.Probe
	done   int64
	total  int64
	dedup  int64
	merges int64
}

// add records finished jobs, up-front clones and mid-run merges, emitting a
// frame at the probe's cadence when jobs finished.
func (p *progress) add(done, dedup, merges int) {
	if p == nil || p.probe == nil {
		return
	}
	p.mu.Lock()
	p.done += int64(done)
	p.dedup += int64(dedup)
	p.merges += int64(merges)
	if done > 0 && p.probe.Due(p.done) {
		p.probe.Emit(p.frame(false))
	}
	p.mu.Unlock()
}

// finish emits the Final frame: every job done.
func (p *progress) finish() {
	if p == nil || p.probe == nil {
		return
	}
	p.mu.Lock()
	p.done = p.total
	p.probe.Emit(p.frame(true))
	p.mu.Unlock()
}

func (p *progress) frame(final bool) obs.Frame {
	return obs.Frame{
		Source: obs.SourceReplay, Done: p.done, Total: p.total, Final: final,
		DedupHits: p.dedup, LaneMerges: p.merges,
	}
}
