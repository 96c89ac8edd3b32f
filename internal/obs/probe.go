package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultInterval is the probe cadence used when NewProbe is given a
// non-positive interval: one frame every 64 progress units (simulator
// events, cpsolve node commits, replay jobs). Chosen so a P=64 Cholesky
// simulation (~45k events) emits a few hundred frames — fine-grained
// enough for a live view, cheap enough to stay inside the ≤5% overhead
// budget pinned by cmd/cholbench (sim-probed/*).
const DefaultInterval = 64

// Frame source names, one per instrumented subsystem.
const (
	SourceSimulate = "simulate"
	SourceCPSolve  = "cpsolve"
	SourceReplay   = "replay"
	SourceSweep    = "sweep"
)

// Frame is one in-run progress snapshot emitted through a Probe. Done/Total
// are in the emitting subsystem's own progress unit (simulator events,
// branch-and-bound nodes, replay jobs); the per-subsystem fields are only
// populated by the matching Source.
type Frame struct {
	Source string `json:"source"`
	Seq    uint64 `json:"seq"`
	Done   int64  `json:"done"`
	Total  int64  `json:"total"`
	Final  bool   `json:"final,omitempty"`

	// Simulator (Source == SourceSimulate).
	SimSec     float64   `json:"sim_sec,omitempty"`     // simulated clock
	ReadyDepth int       `json:"ready_depth,omitempty"` // queued tasks across all workers
	BusySec    []float64 `json:"busy_sec,omitempty"`    // per-worker busy time so far

	// CP solver (Source == SourceCPSolve).
	Nodes        int64   `json:"nodes,omitempty"`         // branch-and-bound nodes expanded
	IncumbentSec float64 `json:"incumbent_sec,omitempty"` // best makespan found so far
	CutSubtrees  int64   `json:"cut_subtrees,omitempty"`  // subtrees truncated by the node budget

	// Replay engine (Source == SourceReplay or SourceSweep).
	DedupHits    int64 `json:"dedup_hits,omitempty"`    // jobs satisfied by seed-invariance cloning
	DeltaResume  int64 `json:"delta_resume,omitempty"`  // delta re-simulations resumed from a checkpoint
	DeltaScratch int64 `json:"delta_scratch,omitempty"` // delta re-simulations that fell back to scratch
	LaneMerges   int64 `json:"lane_merges,omitempty"`   // lanes re-merged mid-run by the lane executor
}

// Clone returns a deep copy. Emitters may alias live arrays (BusySec points
// into the simulator arena); sinks that retain frames must clone first.
func (f Frame) Clone() Frame {
	c := f
	if f.BusySec != nil {
		c.BusySec = append([]float64(nil), f.BusySec...)
	}
	return c
}

// Probe is the live-progress tap. Like Recorder, a nil *Probe is the off
// switch: every instrumentation site is a single pointer check, so the
// disabled path stays allocation-free and bit-identical (pinned by
// cmd/cholbench sim-probed/* against the plain sim/* schedule digests).
//
// The hot-path contract is two-level: the emitting loop first checks the
// pointer, then calls Due(done) — a single atomic load — and only builds a
// Frame when a frame is actually owed. Emit stamps the sequence number,
// advances the next-due threshold, and hands the frame to the sink under
// the probe mutex, so delivery order matches emission order even when a
// probe is shared across goroutines.
type Probe struct {
	every int64
	next  atomic.Int64

	mu   sync.Mutex
	sink func(Frame)
	seq  uint64
}

// NewProbe returns a probe emitting to sink roughly every `every` progress
// units (DefaultInterval when every <= 0). The sink runs synchronously on
// the emitting goroutine and must not call back into the probe.
func NewProbe(every int, sink func(Frame)) *Probe {
	if every <= 0 {
		every = DefaultInterval
	}
	p := &Probe{every: int64(every), sink: sink}
	p.next.Store(p.every)
	return p
}

// Enabled reports whether the probe is attached. Nil-safe.
func (p *Probe) Enabled() bool { return p != nil }

// Interval returns the emission cadence in progress units. Nil-safe.
func (p *Probe) Interval() int64 {
	if p == nil {
		return 0
	}
	return p.every
}

// Due reports whether a frame is owed at progress point done. It is the
// per-iteration hot-path check and must only be called on a non-nil probe
// (guard with `p != nil`, the recnil-enforced fast path).
func (p *Probe) Due(done int64) bool { return done >= p.next.Load() }

// Emit stamps and delivers one frame. Callers emit when Due, plus one
// unconditional Final frame at completion. Safe for concurrent use; frames
// are delivered to the sink in emission order.
func (p *Probe) Emit(f Frame) {
	p.mu.Lock()
	p.seq++
	f.Seq = p.seq
	p.next.Store(f.Done + p.every)
	if p.sink != nil {
		p.sink(f)
	}
	p.mu.Unlock()
}

// Frames returns how many frames have been emitted so far. Nil-safe.
func (p *Probe) Frames() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	n := p.seq
	p.mu.Unlock()
	return n
}

// Reset rewinds the sequence and next-due threshold so a probe can be
// reused across runs (mirrors Recorder.Reset).
func (p *Probe) Reset() {
	p.mu.Lock()
	p.seq = 0
	p.next.Store(p.every)
	p.mu.Unlock()
}

// Canonical span phase names fed into the service phase histograms.
const (
	PhasePrep     = "prep"
	PhaseSimulate = "simulate"
	PhaseBounds   = "bounds"
	PhaseSolve    = "solve"
	PhaseSweep    = "sweep"
)

// SpanObserver receives one completed phase duration. The service layer
// installs one that feeds the cholserved_phase_seconds histogram.
type SpanObserver func(phase string, seconds float64)

// Span times one pipeline phase (prep/simulate/bounds/solve/sweep) on the
// wall clock. A zero Span (nil observer) is inert, so callers can thread an
// optional SpanObserver without branching. obs is deliberately outside the
// deterministic core — wall-clock use is confined here, where it cannot
// leak into schedules (chollint's noclock scope).
type Span struct {
	phase string
	start time.Time
	obs   SpanObserver
}

// StartSpan begins timing phase; End reports the duration to obs.
func StartSpan(phase string, obs SpanObserver) Span {
	if obs == nil {
		return Span{}
	}
	return Span{phase: phase, start: time.Now(), obs: obs}
}

// End stops the span and reports its duration. No-op for a zero Span.
func (s Span) End() {
	if s.obs == nil {
		return
	}
	s.obs(s.phase, time.Since(s.start).Seconds())
}
