package graph

// builder constructs a DAG by replaying a sequential tiled algorithm and
// inferring dependencies from data accesses, enforcing sequential consistency
// exactly as StarPU does: a reader depends on the last writer of each tile it
// reads; a writer depends on the last writer and on every reader since.
type builder struct {
	dag        *DAG
	tileIdx    map[uint64]int // packed tile coordinate (TileKey) → dense tile index
	lastWriter []int          // per tile: ID of the last task writing it (−1: none)
	readers    [][]int        // per tile: tasks reading it since its last write
	deps       []int          // scratch: the current task's distinct predecessors
	slab       []Task         // preallocated tasks, handed out in ID order
}

func newBuilder(alg string, p int) *builder {
	return &builder{dag: &DAG{Algorithm: alg, P: p}, tileIdx: map[uint64]int{}}
}

// TileKey packs a tile coordinate into one word, so coordinate-keyed maps
// take Go's fast 64-bit-key path instead of hashing a [2]int array. The
// packing is injective over 32-bit coordinates.
func TileKey(i, j int) uint64 { return uint64(uint32(i))<<32 | uint64(uint32(j)) }

// tile returns the dense index of tile (i, j), registering it on first use.
func (b *builder) tile(i, j int) int {
	key := TileKey(i, j)
	x, ok := b.tileIdx[key]
	if !ok {
		x = len(b.lastWriter)
		b.tileIdx[key] = x
		b.lastWriter = append(b.lastWriter, -1)
		b.readers = append(b.readers, nil)
	}
	return x
}

// dep records p as a predecessor of the task being wired, once.
func (b *builder) dep(p int) {
	if !contains(b.deps, p) {
		b.deps = append(b.deps, p)
	}
}

// task appends a task accessing the given tiles and wires its dependencies.
func (b *builder) task(kind Kind, i, j, k int, refs ...TileRef) *Task {
	if len(b.slab) == 0 { // grow geometrically, so small DAGs waste little
		b.slab = make([]Task, min(max(len(b.dag.Tasks), 16), 1024))
	}
	t := &b.slab[0]
	b.slab = b.slab[1:]
	*t = Task{ID: len(b.dag.Tasks), Kind: kind, I: i, J: j, K: k, Footprint: refs}
	b.dag.Tasks = append(b.dag.Tasks, t)
	var tiles [4]int
	idx := tiles[:0]
	b.deps = b.deps[:0]
	for _, r := range refs {
		x := b.tile(r.I, r.J)
		idx = append(idx, x)
		if w := b.lastWriter[x]; w >= 0 {
			b.dep(w)
		}
		if r.Mode == ReadWrite {
			for _, rd := range b.readers[x] {
				b.dep(rd)
			}
		}
	}
	if len(b.deps) > 0 {
		sortInts(b.deps)
		t.Pred = append([]int(nil), b.deps...)
		for _, p := range t.Pred {
			b.dag.Tasks[p].Succ = append(b.dag.Tasks[p].Succ, t.ID)
		}
	}
	// Update dataflow state after dependencies are wired.
	for n, r := range refs {
		x := idx[n]
		if r.Mode == ReadWrite {
			b.lastWriter[x] = t.ID
			b.readers[x] = b.readers[x][:0]
		} else {
			b.readers[x] = append(b.readers[x], t.ID)
		}
	}
	return t
}

func (b *builder) finish() *DAG {
	for _, t := range b.dag.Tasks {
		sortInts(t.Succ)
	}
	return b.dag
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Cholesky builds the task graph of the tiled Cholesky factorization of a
// p×p tiled matrix (Algorithm 1; Figure 1 of the paper shows p = 5).
// Task counts: p POTRF, p(p−1)/2 TRSM, p(p−1)/2 SYRK, p(p−1)(p−2)/6 GEMM.
func Cholesky(p int) *DAG {
	b := newBuilder("cholesky", p)
	for k := 0; k < p; k++ {
		b.task(POTRF, -1, -1, k, TileRef{k, k, ReadWrite})
		for i := k + 1; i < p; i++ {
			b.task(TRSM, i, -1, k,
				TileRef{k, k, Read},
				TileRef{i, k, ReadWrite})
		}
		for j := k + 1; j < p; j++ {
			b.task(SYRK, -1, j, k,
				TileRef{j, k, Read},
				TileRef{j, j, ReadWrite})
			for i := j + 1; i < p; i++ {
				b.task(GEMM, i, j, k,
					TileRef{i, k, Read},
					TileRef{j, k, Read},
					TileRef{i, j, ReadWrite})
			}
		}
	}
	return b.finish()
}

// LU builds the task graph of a tiled LU factorization without pivoting
// (right-looking): GETRF on the diagonal, TRSM on row and column panels,
// GEMM trailing updates. Used by the "other factorizations" extension.
func LU(p int) *DAG {
	b := newBuilder("lu", p)
	for k := 0; k < p; k++ {
		b.task(GETRF, -1, -1, k, TileRef{k, k, ReadWrite})
		for j := k + 1; j < p; j++ { // row panel: Akj ← Lkk⁻¹·Akj
			b.task(TRSM, k, j, k,
				TileRef{k, k, Read},
				TileRef{k, j, ReadWrite})
		}
		for i := k + 1; i < p; i++ { // column panel: Aik ← Aik·Ukk⁻¹
			b.task(TRSM, i, k, k,
				TileRef{k, k, Read},
				TileRef{i, k, ReadWrite})
		}
		for i := k + 1; i < p; i++ {
			for j := k + 1; j < p; j++ {
				b.task(GEMM, i, j, k,
					TileRef{i, k, Read},
					TileRef{k, j, Read},
					TileRef{i, j, ReadWrite})
			}
		}
	}
	return b.finish()
}

// QR builds the task graph of the tiled QR factorization (PLASMA-style
// flat-tree: GEQRT on the diagonal, ORMQR on the row, TSQRT down the panel,
// TSMQR trailing updates). Used by the "other factorizations" extension.
func QR(p int) *DAG {
	b := newBuilder("qr", p)
	for k := 0; k < p; k++ {
		b.task(GEQRT, -1, -1, k, TileRef{k, k, ReadWrite})
		for j := k + 1; j < p; j++ {
			b.task(ORMQR, k, j, k,
				TileRef{k, k, Read},
				TileRef{k, j, ReadWrite})
		}
		for i := k + 1; i < p; i++ {
			b.task(TSQRT, i, -1, k,
				TileRef{k, k, ReadWrite},
				TileRef{i, k, ReadWrite})
			for j := k + 1; j < p; j++ {
				b.task(TSMQR, i, j, k,
					TileRef{i, k, Read},
					TileRef{k, j, ReadWrite},
					TileRef{i, j, ReadWrite})
			}
		}
	}
	return b.finish()
}

// CholeskyLeftLooking builds the task graph of the *left-looking* tiled
// Cholesky variant: updates are applied lazily when a panel is reached,
// instead of eagerly after each factorization step (the right-looking
// Algorithm 1). Same kernels, same task counts, different dependency
// structure — left-looking has a longer critical path but touches each tile
// write-once per phase, a classic locality/parallelism trade-off that the
// schedulers and bounds can now measure.
func CholeskyLeftLooking(p int) *DAG {
	b := newBuilder("cholesky", p)
	for j := 0; j < p; j++ {
		// Accumulate all updates from previous panels into column j.
		for k := 0; k < j; k++ {
			b.task(SYRK, -1, j, k,
				TileRef{j, k, Read},
				TileRef{j, j, ReadWrite})
		}
		b.task(POTRF, -1, -1, j, TileRef{j, j, ReadWrite})
		for i := j + 1; i < p; i++ {
			for k := 0; k < j; k++ {
				b.task(GEMM, i, j, k,
					TileRef{i, k, Read},
					TileRef{j, k, Read},
					TileRef{i, j, ReadWrite})
			}
			b.task(TRSM, i, -1, j,
				TileRef{j, j, Read},
				TileRef{i, j, ReadWrite})
		}
	}
	return b.finish()
}
