package graph

// BandedCholesky builds the task graph of the tiled Cholesky factorization
// of a *block-banded* SPD matrix: tiles (i, j) with i − j > bw are zero and
// stay zero (a banded matrix has no fill outside its band), so their tasks
// are skipped entirely. This is a first step toward the paper's announced
// "more irregular applications such as sparse linear algebra": the DAG is
// narrower, parallelism is bounded by the bandwidth, and the gap to the
// area/mixed bounds behaves very differently from the dense case.
//
// bw = p−1 degenerates to the dense Cholesky DAG.
func BandedCholesky(p, bw int) *DAG {
	if bw < 0 {
		bw = 0
	}
	n := 0 // step k issues one POTRF, w TRSM and SYRK and w(w−1)/2 GEMM, w = min(bw, p−1−k)
	for k := 0; k < p; k++ {
		w := min(bw, p-1-k)
		n += 1 + 2*w + w*(w-1)/2
	}
	b := newBuilder("cholesky", p, n, p, 0) // the diagonal-chain bound applies unchanged
	for k := 0; k < p; k++ {
		b.task(POTRF, -1, -1, k, TileRef{k, k, ReadWrite})
		for i := k + 1; i < p && i-k <= bw; i++ {
			b.task(TRSM, i, -1, k,
				TileRef{k, k, Read},
				TileRef{i, k, ReadWrite})
		}
		for j := k + 1; j < p && j-k <= bw; j++ {
			b.task(SYRK, -1, j, k,
				TileRef{j, k, Read},
				TileRef{j, j, ReadWrite})
			for i := j + 1; i < p && i-k <= bw; i++ {
				b.task(GEMM, i, j, k,
					TileRef{i, k, Read},
					TileRef{j, k, Read},
					TileRef{i, j, ReadWrite})
			}
		}
	}
	return b.finish()
}
