// Package bounds computes the paper's makespan lower bounds (Section III)
// for a task DAG on a heterogeneous platform:
//
//   - the *area bound*: an LP over the per-resource-type task counts n_rt,
//     ignoring dependencies — every task must run somewhere, and each
//     resource class must finish its share within the makespan;
//   - the *mixed bound*: the area bound strengthened by the Cholesky
//     critical-path constraint (the chain of all p POTRFs, p−1 TRSMs and
//     p−1 SYRKs must execute sequentially);
//   - the *critical-path bound*: longest DAG path with per-task fastest
//     execution times;
//   - the *GEMM peak*: aggregate GEMM throughput of the machine, the
//     classical upper bound on performance the paper improves upon.
//
// Lower bounds on time are upper bounds on GFLOP/s; both views are exposed.
package bounds

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/lp"
	"repro/internal/platform"
)

// Result is a makespan lower bound together with the LP witness (when one
// exists): Assignment[r][t] is the number of tasks of kind t placed on
// resource class r by the optimal LP/ILP solution.
type Result struct {
	Name        string
	MakespanSec float64
	Assignment  map[int]map[graph.Kind]float64
}

// GFlops converts the bound into the corresponding performance upper bound
// for an algorithm with the given total flop count.
func (r Result) GFlops(flops float64) float64 {
	return platform.GFlops(flops, r.MakespanSec)
}

// runnableNB reports whether class r can execute kind at tile size nb — the
// size-aware counterpart of Class.CanRun, and identical to it at nb = 0 for
// the factorization kinds (conversion kinds are priced by the cost model, not
// the kernel tables).
func runnableNB(p *platform.Platform, r int, kind graph.Kind, nb int) bool {
	return !math.IsInf(p.TimeNB(r, kind, nb), 1)
}

// buildAreaLP constructs the area-bound linear program. Variable layout:
// n_rg for each class r and (kind, size) group g (row-major), then the
// makespan l last. Groups come from the DAG census, ordered by size first
// (nb = 0 leading) then kind, so uniform DAGs (every Task.NB zero) reduce to
// the historical flat per-kind variable layout coefficient for coefficient.
func buildAreaLP(d *graph.DAG, p *platform.Platform) (*lp.Problem, []graph.Group, int) {
	groups := d.Groups()
	R := len(p.Classes)
	T := len(groups)
	nv := R*T + 1
	lVar := R * T

	c := make([]float64, nv)
	c[lVar] = 1
	prob := lp.NewProblem(c)

	v := func(r, t int) int { return r*T + t }

	// Each group fully assigned; unrunnable or empty classes pinned to zero.
	for gi, g := range groups {
		row := make([]float64, nv)
		for r := 0; r < R; r++ {
			if p.Classes[r].Count > 0 && runnableNB(p, r, g.Kind, g.NB) {
				row[v(r, gi)] = 1
			} else {
				zero := make([]float64, nv)
				zero[v(r, gi)] = 1
				prob.AddConstraint(zero, lp.EQ, 0)
			}
		}
		prob.AddConstraint(row, lp.EQ, float64(g.Count))
	}
	// Work per class fits in l × M_r.
	for r := 0; r < R; r++ {
		if p.Classes[r].Count == 0 {
			continue
		}
		row := make([]float64, nv)
		for gi, g := range groups {
			if runnableNB(p, r, g.Kind, g.NB) {
				row[v(r, gi)] = p.TimeNB(r, g.Kind, g.NB)
			}
		}
		row[lVar] = -float64(p.Classes[r].Count)
		prob.AddConstraint(row, lp.LE, 0)
	}
	return prob, groups, lVar
}

func solveBound(name string, prob *lp.Problem, groups []graph.Group, lVar int,
	p *platform.Platform, integer bool) (Result, error) {

	var sol *lp.Solution
	if integer {
		ints := make([]int, 0, lVar)
		for i := 0; i < lVar; i++ {
			ints = append(ints, i)
		}
		// The ILP is usually tiny, but on highly degenerate instances (e.g.
		// the uniform-speedup "related" platform, where the class rows are
		// proportional) branch and bound can wander across an equal-objective
		// plateau. The LP relaxation is itself a valid lower bound and is
		// within ~1e−3 relative of the integral value on those instances, so
		// on budget exhaustion we soundly fall back to it.
		s, err := lp.SolveInteger(prob, ints, 2000)
		if err != nil {
			sol = lp.Solve(prob)
			name += "(relaxed)"
		} else {
			sol = s
		}
	} else {
		sol = lp.Solve(prob)
	}
	if sol.Status != lp.Optimal {
		return Result{}, fmt.Errorf("bounds: %s LP is %v", name, sol.Status)
	}
	// The witness is aggregated over tile sizes: Assignment stays per-kind so
	// existing consumers (reports, plots) are size-agnostic.
	T := len(groups)
	asg := map[int]map[graph.Kind]float64{}
	for r := 0; r*T < lVar; r++ {
		asg[r] = map[graph.Kind]float64{}
		for gi, g := range groups {
			asg[r][g.Kind] += sol.X[r*T+gi]
		}
	}
	return Result{Name: name, MakespanSec: sol.X[lVar], Assignment: asg}, nil
}

// Area computes the area bound as an LP relaxation (a valid lower bound; the
// integral version is Tighter but the relaxation is what can be solved "on
// the fly" in a runtime — both are provided).
func Area(d *graph.DAG, p *platform.Platform) (Result, error) {
	prob, kinds, lVar := buildAreaLP(d, p)
	return solveBound("area", prob, kinds, lVar, p, false)
}

// AreaInt computes the area bound with integral task counts (the paper's
// n_rt ∈ ℕ formulation).
func AreaInt(d *graph.DAG, p *platform.Platform) (Result, error) {
	prob, kinds, lVar := buildAreaLP(d, p)
	return solveBound("area-int", prob, kinds, lVar, p, true)
}

// chainSpec describes the mandatory diagonal chain of a factorization: the
// DAG contains a path visiting every Diagonal-kind task, with Companions
// (one of each kind) between consecutive diagonal tasks. For Cholesky this
// is the paper's POTRF → TRSM → SYRK → POTRF chain; LU and QR have the
// analogous GETRF → TRSM → GEMM and GEQRT → TSQRT → TSMQR chains.
type chainSpec struct {
	Diagonal   graph.Kind
	Companions []graph.Kind
}

var chainSpecs = map[string]chainSpec{
	"cholesky": {graph.POTRF, []graph.Kind{graph.TRSM, graph.SYRK}},
	"lu":       {graph.GETRF, []graph.Kind{graph.TRSM, graph.GEMM}},
	"qr":       {graph.GEQRT, []graph.Kind{graph.TSQRT, graph.TSMQR}},
}

// addDiagonalChain appends the mixed-bound constraint: the diagonal chain —
// every diagonal-kind task, plus one of each companion kind between
// consecutive diagonal tasks at their fastest times — is a path of the DAG,
// so its sequential length bounds the makespan. For uniform Cholesky:
//
//	Σ_r n_rP·T_rP + (p−1)·T*_TRSM + (p−1)·T*_SYRK ≤ l
//
// Mixed-tile DAGs keep the chain property (the split refinement relinks the
// fine diagonal onto the coarse one through SPLIT tasks), with diagonal tasks
// in several size groups; companions are charged at the fastest time over
// the sizes present — sound because each chain leg contains at least one
// companion of *some* size.
func addDiagonalChain(prob *lp.Problem, d *graph.DAG, p *platform.Platform,
	groups []graph.Group, lVar int) error {

	spec, ok := chainSpecs[d.Algorithm]
	if !ok {
		return fmt.Errorf("bounds: no diagonal-chain spec for algorithm %q; use Area instead", d.Algorithm)
	}
	T := len(groups)
	row := make([]float64, lVar+1)
	diagTasks := 0
	for gi, g := range groups {
		if g.Kind != spec.Diagonal {
			continue
		}
		diagTasks += g.Count
		for r := range p.Classes {
			if runnableNB(p, r, g.Kind, g.NB) {
				row[r*T+gi] = p.TimeNB(r, g.Kind, g.NB)
			}
		}
	}
	if diagTasks == 0 {
		return fmt.Errorf("bounds: DAG has no %v tasks; cannot apply the %s chain", spec.Diagonal, d.Algorithm)
	}
	diagCount := float64(diagTasks)
	row[lVar] = -1
	fixed := 0.0
	if diagCount > 1 {
		for _, c := range spec.Companions {
			// Fastest execution over the tile sizes this kind appears at.
			best := math.Inf(1)
			for _, g := range groups {
				if g.Kind != c {
					continue
				}
				if t := p.FastestTimeNB(c, g.NB); t < best {
					best = t
				}
			}
			if math.IsInf(best, 1) {
				best = p.FastestTime(c)
			}
			fixed += (diagCount - 1) * best
		}
	}
	prob.AddConstraint(row, lp.LE, -fixed)
	return nil
}

// Mixed computes the paper's mixed bound (LP relaxation).
func Mixed(d *graph.DAG, p *platform.Platform) (Result, error) {
	prob, kinds, lVar := buildAreaLP(d, p)
	if err := addDiagonalChain(prob, d, p, kinds, lVar); err != nil {
		return Result{}, err
	}
	r, err := solveBound("mixed", prob, kinds, lVar, p, false)
	return r, err
}

// MixedInt computes the mixed bound with integral task counts — the tightest
// bound of the paper, used in every comparison figure.
func MixedInt(d *graph.DAG, p *platform.Platform) (Result, error) {
	prob, kinds, lVar := buildAreaLP(d, p)
	if err := addDiagonalChain(prob, d, p, kinds, lVar); err != nil {
		return Result{}, err
	}
	r, err := solveBound("mixed-int", prob, kinds, lVar, p, true)
	return r, err
}

// CriticalPath computes the critical-path bound: the longest DAG path where
// each task is weighted by its fastest execution time over the platform.
func CriticalPath(d *graph.DAG, p *platform.Platform) (Result, error) {
	cp, _, err := d.CriticalPath(func(t *graph.Task) float64 {
		return p.FastestTimeNB(t.Kind, t.NB)
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Name: "critical-path", MakespanSec: cp}, nil
}

// GemmPeak computes the classical GEMM-peak bound for an algorithm with the
// given flop total: makespan ≥ flops / (aggregate GEMM throughput).
func GemmPeak(flops float64, p *platform.Platform, nb int) Result {
	peak := p.GemmPeakGFlops(kernels.GemmFlops(nb)) * 1e9 // flops/s
	return Result{Name: "gemm-peak", MakespanSec: flops / peak}
}

// All is the bundle of the four bounds of Figure 2 for one matrix size.
type All struct {
	P            int // tile count
	CriticalPath Result
	Area         Result
	Mixed        Result
	GemmPeak     Result
}

// Compute evaluates all four bounds for a Cholesky DAG of p tiles with tile
// size nb on the platform. Mixed and Area use the integral formulation.
func Compute(p int, nb int, pf *platform.Platform) (All, error) {
	d := graph.Cholesky(p)
	cp, err := CriticalPath(d, pf)
	if err != nil {
		return All{}, err
	}
	area, err := AreaInt(d, pf)
	if err != nil {
		return All{}, err
	}
	mixed, err := MixedInt(d, pf)
	if err != nil {
		return All{}, err
	}
	gp := GemmPeak(kernels.CholeskyFlops(p*nb), pf, nb)
	return All{P: p, CriticalPath: cp, Area: area, Mixed: mixed, GemmPeak: gp}, nil
}

// Best returns the tightest (largest) makespan lower bound of the bundle.
func (a All) Best() float64 {
	return math.Max(math.Max(a.CriticalPath.MakespanSec, a.Area.MakespanSec),
		math.Max(a.Mixed.MakespanSec, a.GemmPeak.MakespanSec))
}
