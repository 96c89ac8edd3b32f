package graph

// Task graphs of the tiled triangular solves that complete the paper's
// §II-A pipeline: after A = L·Lᵀ, the system A·x = b is solved by the
// forward solve L·y = b and the backward solve Lᵀ·x = y. Vector chunks are
// addressed as column −1 tiles ((k, −1)) so the data-flow builder and the
// simulator's transfer model treat them like any other data.

// vecChunk is the tile key of the k-th vector chunk.
func vecChunk(k int) TileRef {
	return TileRef{I: k, J: -1, Mode: ReadWrite}
}

// ForwardSolve builds the DAG of the tiled forward substitution L·y = b on
// a p-tiled factor: TRSV_k solves the diagonal chunk, GEMV_{i,k} (i > k)
// applies the update b_i ← b_i − L_ik·y_k.
func ForwardSolve(p int) *DAG {
	b := newBuilder("forward-solve", p, p*(p+1)/2, p, -1)
	for k := 0; k < p; k++ {
		b.task(TRSV, -1, -1, k,
			TileRef{k, k, Read},
			vecChunk(k))
		for i := k + 1; i < p; i++ {
			b.task(GEMV, i, -1, k,
				TileRef{i, k, Read},
				TileRef{k, -1, Read},
				vecChunk(i))
		}
	}
	return b.finish()
}

// BackwardSolve builds the DAG of the tiled backward substitution
// Lᵀ·x = y: TRSV_k (k = p−1 … 0) solves chunk k against L_kkᵀ, and
// GEMV_{i,k} (i < k) applies y_i ← y_i − L_kiᵀ·x_k.
func BackwardSolve(p int) *DAG {
	b := newBuilder("backward-solve", p, p*(p+1)/2, p, -1)
	for k := p - 1; k >= 0; k-- {
		b.task(TRSV, -1, -1, k,
			TileRef{k, k, Read},
			vecChunk(k))
		for i := k - 1; i >= 0; i-- {
			b.task(GEMV, i, -1, k,
				TileRef{k, i, Read}, // L_ki with i < k: a lower tile
				TileRef{k, -1, Read},
				vecChunk(i))
		}
	}
	return b.finish()
}
