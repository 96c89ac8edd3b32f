package cpsolve

import (
	"context"
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/graph"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simulator"
)

func TestSolveSmallValidAndBounded(t *testing.T) {
	p := platform.WithoutCommunication(platform.Mirage())
	for _, n := range []int{1, 2, 3, 4} {
		d := graph.Cholesky(n)
		r, err := Solve(d, p, Options{NodeBudget: 50000})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Schedule.Validate(d, p); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		mixed, err := bounds.MixedInt(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan < mixed.MakespanSec-1e-9 {
			t.Fatalf("n=%d: CP makespan %g below mixed bound %g", n, r.Makespan, mixed.MakespanSec)
		}
	}
}

func TestSolveNeverWorseThanWarmStart(t *testing.T) {
	p := platform.WithoutCommunication(platform.Mirage())
	for _, n := range []int{2, 4, 6} {
		d := graph.Cholesky(n)
		warm, err := sched.HEFT(d, p)
		if err != nil {
			t.Fatal(err)
		}
		_, warmMk, err := replay(d, p, warm)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Solve(d, p, Options{NodeBudget: 20000, WarmStart: warm})
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan > warmMk+1e-9 {
			t.Fatalf("n=%d: CP %g worse than warm start %g", n, r.Makespan, warmMk)
		}
	}
}

func TestSolveSingleTaskOptimal(t *testing.T) {
	p := platform.WithoutCommunication(platform.Mirage())
	d := graph.Cholesky(1)
	r, err := Solve(d, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Makespan-p.FastestTime(graph.POTRF)) > 1e-12 {
		t.Fatalf("makespan %g", r.Makespan)
	}
	if !r.Exhausted {
		t.Fatal("trivial search not exhausted")
	}
}

func TestSolveImprovesOnDmdasSmall(t *testing.T) {
	// The paper's Figure 10 message: the CP solution beats dmdas on small
	// matrices (in the no-communication model). Allow equality but require
	// no regression.
	p := platform.WithoutCommunication(platform.Mirage())
	d := graph.Cholesky(4)
	sim, err := simulator.Run(d, p, sched.NewDMDAS(), simulator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve(d, p, Options{NodeBudget: 100000, Beam: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan > sim.MakespanSec+1e-9 {
		t.Fatalf("CP %g worse than dmdas %g", r.Makespan, sim.MakespanSec)
	}
}

func TestInjectedScheduleMatchesReplay(t *testing.T) {
	// "We injected the exact schedule obtained from CP solution in the
	// simulation and obtained almost equal (difference < 1 %) performance."
	p := platform.WithoutCommunication(platform.Mirage())
	d := graph.Cholesky(5)
	r, err := Solve(d, p, Options{NodeBudget: 30000})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulator.Run(d, p, r.Schedule.Scheduler("cp-inject"), simulator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := simulator.Validate(d, p, sim); err != nil {
		t.Fatal(err)
	}
	diff := math.Abs(sim.MakespanSec-r.Makespan) / r.Makespan
	if diff > 0.01 {
		t.Fatalf("simulated %g vs CP %g: %.2f%% difference", sim.MakespanSec, r.Makespan, 100*diff)
	}
}

func TestReplayDetectsNothingOnValidPlan(t *testing.T) {
	p := platform.WithoutCommunication(platform.Mirage())
	d := graph.Cholesky(4)
	warm, _ := sched.HEFT(d, p)
	mk, err := Replay(d, p, warm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mk-warm.EstMakespan) > 1e-9 {
		t.Fatalf("replay %g vs HEFT estimate %g", mk, warm.EstMakespan)
	}
}

func TestBudgetExhaustionReported(t *testing.T) {
	p := platform.WithoutCommunication(platform.Mirage())
	d := graph.Cholesky(8)
	r, err := Solve(d, p, Options{NodeBudget: 50})
	if err != nil {
		t.Fatal(err)
	}
	if r.Exhausted {
		t.Fatal("tiny budget cannot exhaust a 120-task search space")
	}
	if err := r.Schedule.Validate(d, p); err != nil {
		t.Fatal(err)
	}
}

func TestNodesCounted(t *testing.T) {
	p := platform.WithoutCommunication(platform.Mirage())
	d := graph.Cholesky(3)
	r, err := Solve(d, p, Options{NodeBudget: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes <= 0 || r.Nodes > 10001 {
		t.Fatalf("Nodes = %d", r.Nodes)
	}
}

func TestSolveRejectsBadInputs(t *testing.T) {
	bad := &graph.DAG{Tasks: []*graph.Task{
		{ID: 0, Kind: graph.GEMM, Succ: []int{1}, Pred: []int{1}},
		{ID: 1, Kind: graph.GEMM, Succ: []int{0}, Pred: []int{0}},
	}}
	if _, err := Solve(bad, platform.Mirage(), Options{}); err == nil {
		t.Fatal("expected cycle error")
	}
	empty := &platform.Platform{Classes: []platform.Class{{Count: 0}}}
	if _, err := Solve(graph.Cholesky(2), empty, Options{}); err == nil {
		t.Fatal("expected platform error")
	}
}

func TestMappingOnlyInjectionDoesNotBeatFull(t *testing.T) {
	// Section VI-B: keeping only the CPU/GPU mapping of the CP solution and
	// letting the dynamic scheduler order tasks does not recover the CP
	// performance (full injection ≤ mapping-only, up to tolerance).
	p := platform.WithoutCommunication(platform.Mirage())
	d := graph.Cholesky(5)
	r, err := Solve(d, p, Options{NodeBudget: 50000, Beam: 3})
	if err != nil {
		t.Fatal(err)
	}
	full, err := simulator.Run(d, p, r.Schedule.Scheduler("cp-full"), simulator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mapOnly, err := simulator.Run(d, p, r.Schedule.MappingScheduler(p), simulator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.MakespanSec > mapOnly.MakespanSec*1.02 {
		t.Fatalf("full injection %g notably worse than mapping-only %g",
			full.MakespanSec, mapOnly.MakespanSec)
	}
}

func TestCommAwareCPBetterUnderCommModel(t *testing.T) {
	// The data-aware extension: a schedule optimized with the one-hop
	// penalty should evaluate no worse than the oblivious schedule when
	// both are judged under the penalty model.
	p := platform.WithoutCommunication(platform.Mirage())
	hop := platform.Mirage().Bus.TransferTime(platform.Mirage().TileBytes)
	d := graph.Cholesky(5)
	obl, err := Solve(d, p, Options{NodeBudget: 30000, Beam: 3})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := Solve(d, p, Options{NodeBudget: 30000, Beam: 3, CommHopSec: hop})
	if err != nil {
		t.Fatal(err)
	}
	oblUnderComm, err := ReplayComm(d, p, obl.Schedule, hop)
	if err != nil {
		t.Fatal(err)
	}
	if aware.Makespan > oblUnderComm+1e-9 {
		t.Fatalf("comm-aware CP %g worse than oblivious-evaluated-with-comm %g",
			aware.Makespan, oblUnderComm)
	}
	// The penalty model can only lengthen a given schedule.
	oblPlain, err := Replay(d, p, obl.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if oblUnderComm < oblPlain-1e-9 {
		t.Fatal("comm penalty shortened a schedule")
	}
}

func TestReplayCommZeroHopMatchesReplay(t *testing.T) {
	p := platform.WithoutCommunication(platform.Mirage())
	d := graph.Cholesky(4)
	warm, _ := sched.HEFT(d, p)
	a, err := Replay(d, p, warm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayComm(d, p, warm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("zero-hop replay differs: %g vs %g", a, b)
	}
}

func TestSolveLUAndQRDAGs(t *testing.T) {
	// The CP search is DAG-generic: it must handle the extension
	// factorizations on the extended platform and respect their bounds.
	p := platform.WithoutCommunication(platform.MirageExtended())
	for _, d := range []*graph.DAG{graph.LU(4), graph.QR(3)} {
		r, err := Solve(d, p, Options{NodeBudget: 10000})
		if err != nil {
			t.Fatalf("%s: %v", d.Algorithm, err)
		}
		if err := r.Schedule.Validate(d, p); err != nil {
			t.Fatal(err)
		}
		m, err := bounds.MixedInt(d, p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan < m.MakespanSec-1e-9 {
			t.Fatalf("%s: CP %g below mixed bound %g", d.Algorithm, r.Makespan, m.MakespanSec)
		}
	}
}

// TestNodeExpansionAllocFree pins the hot path's allocation contract: once a
// solver is built, a whole budget-bound dfs — every node's bound test,
// candidate selection, placements, commits and undos — allocates nothing,
// under both comm models.
func TestNodeExpansionAllocFree(t *testing.T) {
	d := graph.Cholesky(6)
	p := platform.Mirage()
	bl, err := d.BottomLevels(func(t *graph.Task) float64 { return p.FastestTimeNB(t.Kind, t.NB) })
	if err != nil {
		t.Fatal(err)
	}
	const budget = 5000
	for _, hop := range []float64{0, 5e-4} {
		sv := newSolver(newProb(d, p, Options{NodeBudget: budget, Beam: 3, CommHopSec: hop}, bl), context.Background())
		allocs := testing.AllocsPerRun(3, func() {
			sv.bestMk = math.Inf(1)
			sv.reset()
			sv.nodes, sv.budget, sv.cut = 0, budget, false
			sv.dfs(0, 0)
		})
		if sv.nodes != budget {
			t.Fatalf("hop=%g: explored %d nodes, want the full budget %d", hop, sv.nodes, budget)
		}
		if allocs != 0 {
			t.Fatalf("hop=%g: dfs allocated %.1f times per run", hop, allocs)
		}
	}
}
