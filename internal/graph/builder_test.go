package graph

import (
	"slices"
	"testing"
)

// TestSlabListsAreIsolated: every list a builder hands out shares a slab
// with its neighbours, so each must have its capacity capped — appending to
// one task's Pred, Succ or Footprint must reallocate, never write into the
// next task's list.
func TestSlabListsAreIsolated(t *testing.T) {
	for name, build := range map[string]func() *DAG{
		"cholesky": func() *DAG { return Cholesky(6) },
		"qr":       func() *DAG { return QR(5) },
		"split":    func() *DAG { return CholeskySplit(6, 3, 2, 960) },
		"backward": func() *DAG { return BackwardSolve(5) },
	} {
		d, ref := build(), build()
		for _, tk := range d.Tasks {
			tk.Pred = append(tk.Pred, -1)
			tk.Succ = append(tk.Succ, -1)
			tk.Footprint = append(tk.Footprint, TileRef{I: -1, J: -1})
		}
		for id, tk := range d.Tasks {
			r := ref.Tasks[id]
			if !slices.Equal(tk.Pred[:len(tk.Pred)-1], r.Pred) ||
				!slices.Equal(tk.Succ[:len(tk.Succ)-1], r.Succ) ||
				!slices.Equal(tk.Footprint[:len(tk.Footprint)-1], r.Footprint) {
				t.Fatalf("%s: appending to other tasks' lists changed task %d", name, id)
			}
		}
	}
}

// TestCholeskyBuildAllocsConstant: a Cholesky build allocates a fixed
// handful of slabs and tables, independent of the task count.
func TestCholeskyBuildAllocsConstant(t *testing.T) {
	small := testing.AllocsPerRun(5, func() { Cholesky(16) })
	large := testing.AllocsPerRun(5, func() { Cholesky(48) })
	if small != large || large > 16 {
		t.Fatalf("Cholesky allocates %v times at P=16 and %v at P=48, want the same small constant (≤ 16)", small, large)
	}
}
