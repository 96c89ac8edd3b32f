package replay

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simulator"
)

// Knob describes how a variant configuration differs from a recorded base
// run, precisely enough for Delta to bound where their schedules can first
// diverge.
type Knob struct {
	// Affected reports whether the changed knob can alter the scheduler's
	// placement or priority of task t (e.g. the tasks a hint newly
	// constrains or releases — take the union over both knob values). Tasks
	// outside the set must be treated identically by base and variant. A
	// nil Affected with SeedOnly unset means the change can touch every
	// decision: Delta re-simulates from scratch.
	Affected func(t *graph.Task) bool
	// SeedOnly marks a variant differing from the base in Options.Seed
	// alone. When the run never consumes the seed (seed-invariant
	// scheduler, jitter off) no decision can diverge and the base Result is
	// simply cloned; otherwise Delta falls back to scratch.
	SeedOnly bool
}

// SeedKnob is the Options.Seed-only change.
func SeedKnob() Knob { return Knob{SeedOnly: true} }

// FullKnob is a change with no exploitable structure (nb, platform, DAG):
// Delta runs the variant from scratch (still sharing the base's Prep).
func FullKnob() Knob { return Knob{} }

// PanelKnob bounds a knob constraining only tasks of trailing panels k ≥ k0
// (Donfack-style split-point tuning): those tasks become ready late, so the
// shared prefix is long and the delta suffix short.
func PanelKnob(k0 int) Knob {
	return Knob{Affected: func(t *graph.Task) bool { return t.K >= k0 }}
}

// TrsmKnob bounds the registered trsm-cpu:k hint family: sweeping the
// threshold between k1 and k2 can only re-place TRSMs at least
// min(k1, k2) tiles below the diagonal.
func TrsmKnob(k1, k2 int) Knob {
	k := k1
	if k2 < k {
		k = k2
	}
	return Knob{Affected: func(t *graph.Task) bool { return t.Kind == graph.TRSM && t.I-t.K >= k }}
}

// Base is a recorded reference run delta queries resume from.
type Base struct {
	Prep *simulator.Prep
	Rec  *simulator.Recording

	// Probe, when non-nil, receives one frame per Delta query carrying the
	// cumulative outcome counters below, so a live view shows how often
	// the delta machinery pays off versus falls back to scratch.
	Probe *obs.Probe

	emitMu  sync.Mutex   // serializes counter+emit so frame Done is monotone
	clones  atomic.Int64 // queries answered by cloning the base Result
	resumes atomic.Int64 // queries resumed from a checkpoint
	scratch atomic.Int64 // queries that fell back to a from-scratch run
}

// DeltaStats reports the cumulative Delta outcome counters: base-clone
// answers, checkpoint resumes, and from-scratch fallbacks (in that order).
func (b *Base) DeltaStats() (clones, resumes, scratch int64) {
	return b.clones.Load(), b.resumes.Load(), b.scratch.Load()
}

// countDelta bumps one outcome counter and, with a probe attached, emits a
// frame with the running totals. counter must be one of the Base counters.
// The emit mutex keeps Done monotone when Delta queries run concurrently.
func (b *Base) countDelta(counter *atomic.Int64) {
	p := b.Probe
	if p == nil {
		counter.Add(1)
		return
	}
	b.emitMu.Lock()
	counter.Add(1)
	clones, resumes, scratch := b.DeltaStats()
	p.Emit(obs.Frame{
		Source:       obs.SourceReplay,
		Done:         clones + resumes + scratch,
		DedupHits:    clones,
		DeltaResume:  resumes,
		DeltaScratch: scratch,
	})
	b.emitMu.Unlock()
}

// Record runs the base configuration once under checkpointing: the decision
// trace locates the first divergent decision of a variant, the periodic
// snapshots are the resume points. stride ≤ 0 picks a default granularity
// (~16 snapshots across the run).
func Record(ctx context.Context, d *graph.DAG, p *platform.Platform, s sched.Scheduler, opt simulator.Options, stride int) (*Base, error) {
	pp, err := simulator.Prepare(d, p)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if stride <= 0 {
		stride = len(d.Tasks)/16 + 1
	}
	rec, err := pp.RunRecorded(ctx, s, opt, stride, nil)
	if err != nil {
		return nil, err
	}
	return &Base{Prep: pp, Rec: rec}, nil
}

// Delta returns the variant configuration's Result, bit-identical to running
// it from scratch (the FuzzDeltaReplay property). When the knob's first
// affected decision lies beyond a checkpoint, only the suffix from that
// checkpoint is re-simulated; when no base decision is affected, the base
// Result is cloned without simulating at all. Every precondition the resume
// shortcut needs is checked here — variants it cannot prove safe
// (non-pure-assign schedulers, option changes beyond the seed, seed changes
// on seed-consuming runs) silently run from scratch instead.
func (b *Base) Delta(ctx context.Context, mk func() sched.Scheduler, opt simulator.Options, knob Knob, pool *Pool) (*simulator.Result, error) {
	if pool == nil {
		pool = &Pool{}
	}
	s := mk()
	scratch := func() (*simulator.Result, error) {
		a := pool.Get()
		r, err := b.Prep.Run(ctx, s, opt, a)
		pool.Put(a)
		if err == nil {
			b.countDelta(&b.scratch)
		}
		return r, err
	}
	base := b.Rec.Opt
	if opt.Recorder != nil || opt.Overhead != base.Overhead || opt.WorkStealing != base.WorkStealing {
		return scratch()
	}
	if s.Ordered() != b.Rec.Ordered || !sched.IsPureAssign(s) {
		return scratch()
	}
	if opt.Seed != base.Seed {
		if jitterActive(b.Prep.Platform(), opt) || !sched.IsSeedInvariant(s) {
			return scratch()
		}
	}
	div := len(b.Rec.Decisions) // first affected decision index; len = none
	if knob.Affected != nil {
		d := b.Prep.DAG()
		for i, id := range b.Rec.Decisions {
			if knob.Affected(d.Tasks[id]) {
				div = i
				break
			}
		}
	} else if !knob.SeedOnly {
		return scratch()
	}
	if div == len(b.Rec.Decisions) {
		// No decision the variant could change exists: its schedule is the
		// base's. (Equality of every simulator-side input was checked above.)
		b.countDelta(&b.clones)
		return b.Rec.Result.Clone(), nil
	}
	sn := b.Rec.SnapshotBefore(div)
	if sn == nil {
		return scratch()
	}
	a := pool.Get()
	r, err := b.Prep.Resume(ctx, s, opt, sn, a)
	pool.Put(a)
	if err == nil {
		b.countDelta(&b.resumes)
	}
	return r, err
}
