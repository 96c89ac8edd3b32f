package graph

import "fmt"

// CholeskySplit builds a mixed-tile-size Cholesky DAG in the HeSP style
// (Tile-size sensitivity: arXiv:1602.05510): the first fromK panels of the
// p×p coarse grid run at the coarse tile size nb, then the trailing
// (p−fromK)×(p−fromK) submatrix — where per-panel parallelism has decayed —
// is refined by factor into (nb/factor)-sized tiles through explicit SPLIT
// conversion tasks, factorized at the fine granularity, and repacked into
// coarse tiles by MERGE tasks so the output representation is uniform again.
//
// Coarse tiles keep their (i, j) coordinates; the fine subtile at offset
// (a, b) inside coarse tile (i, j) lives at coordinate
// (p + (i−fromK)·factor + a, p + (j−fromK)·factor + b), so coarse and fine
// tiles never alias and the sequential-consistency builder wires the
// SPLIT → fine-kernel → MERGE dependencies from the data accesses alone.
//
// fromK = p (or factor = 1) degenerates to the uniform right-looking builder
// with Task.NB pinned to nb. nb must be positive and divisible by factor.
func CholeskySplit(p, fromK, factor, nb int) *DAG {
	if p <= 0 || fromK < 0 || fromK > p {
		panic(fmt.Sprintf("graph: CholeskySplit fromK=%d out of range [0, %d]", fromK, p))
	}
	if factor < 1 || nb <= 0 || nb%factor != 0 {
		panic(fmt.Sprintf("graph: CholeskySplit needs factor ≥ 1 dividing nb, got factor=%d nb=%d", factor, nb))
	}
	if factor == 1 {
		fromK = p // splitting by 1 converts nothing
	}
	m := (p - fromK) * factor                 // fine grid side
	conv := (p - fromK) * (p - fromK + 1) / 2 // SPLIT and MERGE tasks each
	// The coarse panels issue the tasks of Cholesky(p) minus its trailing
	// Cholesky(p−fromK); fine tiles live at coordinates [p, p+m).
	b := newBuilder("cholesky", p, choleskyTasks(p)-choleskyTasks(p-fromK)+2*conv+choleskyTasks(m), p+m, 0)
	nbFine := nb / factor

	// Coarse right-looking panels, Algorithm 1 verbatim. Trailing updates for
	// i, j ≥ fromK still run at coarse granularity: the refinement happens
	// only once every coarse-panel contribution has been accumulated.
	for k := 0; k < fromK; k++ {
		b.task(POTRF, -1, -1, k, TileRef{k, k, ReadWrite}).NB = nb
		for i := k + 1; i < p; i++ {
			b.task(TRSM, i, -1, k,
				TileRef{k, k, Read},
				TileRef{i, k, ReadWrite}).NB = nb
		}
		for j := k + 1; j < p; j++ {
			b.task(SYRK, -1, j, k,
				TileRef{j, k, Read},
				TileRef{j, j, ReadWrite}).NB = nb
			for i := j + 1; i < p; i++ {
				b.task(GEMM, i, j, k,
					TileRef{i, k, Read},
					TileRef{j, k, Read},
					TileRef{i, j, ReadWrite}).NB = nb
			}
		}
	}
	if fromK == p {
		return b.finish()
	}

	// fine maps submatrix-relative fine indices to global tile coordinates.
	fine := func(a int) int { return p + a }
	d := b.dag
	d.TileNB = make(map[[2]int]int, m*(m+1)/2)
	refs := make([]TileRef, 0, 1+factor*factor) // reused: task copies each footprint

	// SPLIT: one conversion task per trailing coarse tile, reading the fully
	// updated coarse tile and writing its lower-triangle-relevant subtiles.
	for i := fromK; i < p; i++ {
		for j := fromK; j <= i; j++ {
			refs = append(refs[:0], TileRef{i, j, Read})
			for a := 0; a < factor; a++ {
				for c := 0; c < factor; c++ {
					gi := fine((i-fromK)*factor + a)
					gj := fine((j-fromK)*factor + c)
					if gj > gi { // above the global diagonal: unused
						continue
					}
					refs = append(refs, TileRef{gi, gj, ReadWrite})
					d.TileNB[[2]int{gi, gj}] = nbFine
				}
			}
			b.task(SPLIT, i, j, -1, refs...).NB = nb
		}
	}

	// Fine-granularity right-looking Cholesky over the m×m subtile grid.
	// Indices are stored as global coordinates so fine tasks never collide
	// with coarse ones in names or hint predicates.
	for k := 0; k < m; k++ {
		b.task(POTRF, -1, -1, fine(k), TileRef{fine(k), fine(k), ReadWrite}).NB = nbFine
		for i := k + 1; i < m; i++ {
			b.task(TRSM, fine(i), -1, fine(k),
				TileRef{fine(k), fine(k), Read},
				TileRef{fine(i), fine(k), ReadWrite}).NB = nbFine
		}
		for j := k + 1; j < m; j++ {
			b.task(SYRK, -1, fine(j), fine(k),
				TileRef{fine(j), fine(k), Read},
				TileRef{fine(j), fine(j), ReadWrite}).NB = nbFine
			for i := j + 1; i < m; i++ {
				b.task(GEMM, fine(i), fine(j), fine(k),
					TileRef{fine(i), fine(k), Read},
					TileRef{fine(j), fine(k), Read},
					TileRef{fine(i), fine(j), ReadWrite}).NB = nbFine
			}
		}
	}

	// MERGE: repack each coarse tile from its factored subtiles.
	for i := fromK; i < p; i++ {
		for j := fromK; j <= i; j++ {
			refs = append(refs[:0], TileRef{i, j, ReadWrite})
			for a := 0; a < factor; a++ {
				for c := 0; c < factor; c++ {
					gi := fine((i-fromK)*factor + a)
					gj := fine((j-fromK)*factor + c)
					if gj > gi {
						continue
					}
					refs = append(refs, TileRef{gi, gj, Read})
				}
			}
			b.task(MERGE, i, j, -1, refs...).NB = nb
		}
	}
	return b.finish()
}
