package runtime

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/matrix"
)

// Parallel triangular solves — the second half of the paper's §II-A
// pipeline, executed on the same task runtime as the factorization.

// chunks splits a length-p·nb vector into p tile-sized views (no copies).
func chunks(b []float64, p, nb int) [][]float64 {
	out := make([][]float64, p)
	for k := 0; k < p; k++ {
		out[k] = b[k*nb : (k+1)*nb]
	}
	return out
}

// forwardSolveExecutor maps forward-solve tasks onto the kernels.
func forwardSolveExecutor(l *matrix.Tiled, b [][]float64) TaskFunc {
	return func(t *graph.Task) error {
		switch t.Kind {
		case graph.TRSV:
			kernels.Trsv(l.Tile(t.K, t.K), b[t.K])
		case graph.GEMV:
			kernels.Gemv(l.Tile(t.I, t.K), b[t.K], b[t.I])
		default:
			return fmt.Errorf("runtime: unexpected kind %v in forward solve", t.Kind)
		}
		return nil
	}
}

// backwardSolveExecutor maps backward-solve tasks onto the kernels.
func backwardSolveExecutor(l *matrix.Tiled, b [][]float64) TaskFunc {
	return func(t *graph.Task) error {
		switch t.Kind {
		case graph.TRSV:
			kernels.TrsvT(l.Tile(t.K, t.K), b[t.K])
		case graph.GEMV:
			kernels.GemvT(l.Tile(t.K, t.I), b[t.K], b[t.I])
		default:
			return fmt.Errorf("runtime: unexpected kind %v in backward solve", t.Kind)
		}
		return nil
	}
}

// Solve completes A·x = b given the tiled Cholesky factor l (from Factor):
// it runs the parallel forward and backward substitutions in place on b and
// returns it as x.
func Solve(l *matrix.Tiled, b []float64, opt Options) ([]float64, error) {
	n := l.N()
	if len(b) != n {
		return nil, fmt.Errorf("runtime: rhs length %d != matrix dimension %d", len(b), n)
	}
	ch := chunks(b, l.P, l.NB)
	if _, err := Run(graph.ForwardSolve(l.P), forwardSolveExecutor(l, ch), opt); err != nil {
		return nil, err
	}
	if _, err := Run(graph.BackwardSolve(l.P), backwardSolveExecutor(l, ch), opt); err != nil {
		return nil, err
	}
	return b, nil
}

// FactorAndSolve factorizes a tiled SPD matrix in place and solves for the
// given right-hand side — the complete §II-A pipeline in one call.
func FactorAndSolve(a *matrix.Tiled, b []float64, opt Options) ([]float64, error) {
	if _, err := Factor(a, opt); err != nil {
		return nil, err
	}
	return Solve(a, b, opt)
}

// SolveRefined solves A·x = b with one-step iterative refinement on top of
// the factored solve: after the triangular solves, the residual
// r = b − A·x is recomputed against the *original* matrix and a correction
// solve is applied, iters times. Classic LAPACK-style refinement — it
// recovers digits lost to an ill-conditioned factorization (e.g. Hilbert
// matrices) at the cost of one matrix-vector product per pass.
//
// a is the original matrix; l its tiled Cholesky factor (from Factor).
func SolveRefined(a *matrix.Dense, l *matrix.Tiled, b []float64, iters int, opt Options) ([]float64, error) {
	n := a.N
	if l.N() != n || len(b) != n {
		return nil, fmt.Errorf("runtime: dimension mismatch (A %d, L %d, b %d)", n, l.N(), len(b))
	}
	x := append([]float64{}, b...)
	if _, err := Solve(l, x, opt); err != nil {
		return nil, err
	}
	for it := 0; it < iters; it++ {
		// r = b − A·x (against the original, unfactored matrix).
		r := make([]float64, n)
		for i := 0; i < n; i++ {
			s := b[i]
			row := a.Data[i*n : (i+1)*n]
			for j, av := range row {
				s -= av * x[j]
			}
			r[i] = s
		}
		if _, err := Solve(l, r, opt); err != nil {
			return nil, err
		}
		for i := range x {
			x[i] += r[i]
		}
	}
	return x, nil
}
