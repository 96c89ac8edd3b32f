package sched

// The marker interfaces below are claims with teeth: chollint's puremark
// analyzer (internal/analysis) proves every `return true` body against
// interprocedural effect summaries — a claim it cannot prove is a lint
// failure, not a comment. See DESIGN.md, "Static analysis".

// SeedInvariant is an optional Scheduler extension declaring that the policy
// ignores the Init seed entirely: for a fixed (DAG, platform), runs under any
// two seeds produce identical decisions. internal/replay uses it to collapse
// a multi-seed batch to one simulation when the jitter model is off.
//
// The declaration doubles as an identity contract: replay keys deduplication
// on Name(), so a scheduler reporting true must encode its whole policy
// configuration in its name (as the registered families do — "dmdas",
// "partition:0.5", "dmdas+trsm-cpu(k=6)"). Policies configured from external
// artifacts that the name cannot capture (injected static plans) must report
// false even though they never read the seed.
type SeedInvariant interface {
	SeedInvariant() bool
}

// PureAssign is an optional Scheduler extension declaring that the policy
// carries no mutable per-run state beyond what Init computes: Assign and
// Priority read but never write the scheduler. internal/replay requires it
// for delta resumption — a fresh Init'ed instance must behave identically to
// the base run's instance at any decision index, which a policy mutated per
// Assign (dmdar's locality map, random's RNG) cannot guarantee.
type PureAssign interface {
	PureAssign() bool
}

// IsSeedInvariant reports whether s declares seed invariance.
func IsSeedInvariant(s Scheduler) bool {
	si, ok := s.(SeedInvariant)
	return ok && si.SeedInvariant()
}

// IsPureAssign reports whether s declares assignment purity.
func IsPureAssign(s Scheduler) bool {
	pa, ok := s.(PureAssign)
	return ok && pa.PureAssign()
}

// Shareable reports whether one instance of s may serve interleaved Assign/
// Priority calls from many concurrently-advancing simulation lanes of the
// same (DAG, platform), Init'ed once for the whole batch. Both proven marker
// claims are required: SeedInvariant makes the single Init seed immaterial
// to every lane, and PureAssign guarantees the interleaving leaves no trace
// — Assign and Priority never write the instance, so each lane observes
// exactly the scheduler a private instance would have been. The replay lane
// executor keys batch-wide scheduler sharing (and hence its ECT evaluation over a
// lane batch through the per-lane sched.View) on this predicate; policies
// failing it get a fresh instance per lane instead.
func Shareable(s Scheduler) bool {
	return IsSeedInvariant(s) && IsPureAssign(s)
}

// The dm family never reads the seed and keeps all state in the Init-computed
// priority table. Embedders with per-Assign state or out-of-name
// configuration must override (dmdar, orderSched below).
func (s *dm) SeedInvariant() bool { return true }
func (s *dm) PureAssign() bool    { return true }

func (greedy) SeedInvariant() bool { return true }
func (greedy) PureAssign() bool    { return true }

// random draws a worker from its seeded RNG on every Assign.
func (s *randomSched) SeedInvariant() bool { return false }
func (s *randomSched) PureAssign() bool    { return false }

// dmdar ignores the seed but updates its locality map on every Assign, so a
// fresh instance cannot stand in for the base run's mid-run state.
func (s *dmdar) PureAssign() bool { return false }

// orderSched's plan comes from an injected static schedule the name cannot
// identify; two same-named instances may disagree on every decision.
func (s *orderSched) SeedInvariant() bool { return false }
