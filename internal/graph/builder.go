package graph

import (
	"fmt"
	"slices"
)

// builder constructs a DAG by replaying a sequential tiled algorithm and
// inferring dependencies from data accesses, enforcing sequential consistency
// exactly as StarPU does: a reader depends on the last writer of each tile it
// reads; a writer depends on the last writer and on every reader since.
//
// A build allocates nothing per task. Tasks, footprints and Pred lists are
// carved from shared slabs presized from the builder's task count (refilled
// geometrically if that count falls short), and each carved list has its
// capacity capped, so an append to one task's list reallocates instead of
// overwriting the next task's. finish fills every Succ list in one pass.
type builder struct {
	dag   *DAG
	tasks []Task    // task slab, handed out in ID order
	refs  []TileRef // footprint slab
	preds []int     // Pred slab
	deps  []int     // scratch: the current task's predecessors

	// Dataflow state over the dense tile grid [0, rows) × [jLo, rows).
	rows, jLo, cols int
	tiles           []tileState  // indexed by tileAt
	readers         []readerSlot // one slot per Read access, linked newest first per tile
}

// tileState is one tile's dataflow state: its last writer and the newest of
// the reads since that write (−1: none).
type tileState struct{ lastWriter, readHead int32 }

// readerSlot is one Read access on the per-tile list of reads since the
// tile's last write; next is the previous such read's slot (−1: none).
type readerSlot struct{ task, next int32 }

// newBuilder starts a DAG of about taskHint tasks over tiles with row
// coordinates in [0, rows) and column coordinates in [jLo, rows).
func newBuilder(alg string, p, taskHint, rows, jLo int) *builder {
	taskHint, rows = max(taskHint, 0), max(rows, 0)
	cols := max(rows-jLo, 0)
	b := &builder{
		dag:   &DAG{Algorithm: alg, P: p},
		tasks: make([]Task, taskHint),
		refs:  make([]TileRef, 3*taskHint),
		preds: make([]int, 3*taskHint),
		deps:  make([]int, 0, 16),
		rows:  rows, jLo: jLo, cols: cols,
		tiles:   make([]tileState, rows*cols),
		readers: make([]readerSlot, 0, 2*taskHint),
	}
	if taskHint > 0 {
		b.dag.Tasks = make([]*Task, 0, taskHint)
	}
	for x := range b.tiles {
		b.tiles[x] = tileState{lastWriter: -1, readHead: -1}
	}
	return b
}

// TileKey packs a tile coordinate into one word, so coordinate-keyed maps
// take Go's fast 64-bit-key path instead of hashing a [2]int array. The
// packing is injective over 32-bit coordinates.
func TileKey(i, j int) uint64 { return uint64(uint32(i))<<32 | uint64(uint32(j)) }

// tileAt returns the dense index of tile (i, j) in the builder's grid.
func (b *builder) tileAt(i, j int) int {
	c := j - b.jLo
	if i < 0 || i >= b.rows || c < 0 || c >= b.cols {
		panic(fmt.Sprintf("graph: tile (%d, %d) outside the builder grid [0,%d)×[%d,%d)", i, j, b.rows, b.jLo, b.rows)) //chollint:alloc abort path: a builder declared too small a grid
	}
	return i*b.cols + c
}

// task appends a task accessing the given tiles and wires its predecessors.
//
//chol:hotpath one call per task of every DAG build; the slabs make it allocation-free
func (b *builder) task(kind Kind, i, j, k int, refs ...TileRef) *Task {
	id := len(b.dag.Tasks)
	b.deps = b.deps[:0]
	for _, r := range refs {
		st := b.tiles[b.tileAt(r.I, r.J)]
		if st.lastWriter >= 0 {
			b.deps = append(b.deps, int(st.lastWriter))
		}
		if r.Mode == ReadWrite {
			n := len(b.deps)
			for s := st.readHead; s >= 0; s = b.readers[s].next {
				b.deps = append(b.deps, int(b.readers[s].task))
			}
			slices.Reverse(b.deps[n:]) // newest first → ascending
		}
	}
	b.deps = sortedSet(b.deps)

	if len(b.tasks) == 0 {
		b.tasks = make([]Task, max(id, 16)) //chollint:alloc amortized slab refill when the task count falls short
	}
	t := &b.tasks[0]
	b.tasks = b.tasks[1:]
	*t = Task{ID: id, Kind: kind, I: i, J: j, K: k,
		Footprint: carve(&b.refs, refs, 3*max(id, 16)),
		Pred:      carve(&b.preds, b.deps, 3*max(id, 16)),
	}
	b.dag.Tasks = append(b.dag.Tasks, t)

	// Update dataflow state after dependencies are wired.
	for _, r := range refs {
		st := &b.tiles[b.tileAt(r.I, r.J)]
		if r.Mode == ReadWrite {
			st.lastWriter, st.readHead = int32(id), -1
		} else {
			b.readers = append(b.readers, readerSlot{task: int32(id), next: st.readHead})
			st.readHead = int32(len(b.readers) - 1)
		}
	}
	return t
}

// carve copies src to the front of *slab and returns the copy with its
// capacity capped at its length, or nil for an empty src. An exhausted slab
// is refilled with room for at least grow elements.
func carve[T any](slab *[]T, src []T, grow int) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	if len(*slab) < n {
		*slab = make([]T, max(n, grow)) //chollint:alloc amortized slab refill
	}
	dst := (*slab)[:n:n]
	copy(dst, src)
	*slab = (*slab)[n:]
	return dst
}

// sortedSet sorts s in place and drops repeats. The lists it sees are a few
// ascending runs, so insertion sort is near linear.
func sortedSet(s []int) []int {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return slices.Compact(s)
}

// finish fills every task's Succ list. Walking the tasks in ID order and
// appending each to its predecessors' lists leaves every list ascending;
// the lists share one slice, each capped at its out-degree.
func (b *builder) finish() *DAG {
	tasks := b.dag.Tasks
	if len(tasks) == 0 {
		return b.dag
	}
	off := make([]int, len(tasks)+1) // off[p+1] counts p's successors, then prefix-sums into p's offset
	for _, t := range tasks {
		for _, p := range t.Pred {
			off[p+1]++
		}
	}
	for id := range tasks {
		off[id+1] += off[id]
	}
	succ := make([]int, off[len(tasks)])
	for id, t := range tasks {
		if lo, hi := off[id], off[id+1]; hi > lo {
			t.Succ = succ[lo:lo:hi]
		}
	}
	for _, t := range tasks {
		for _, p := range t.Pred {
			tasks[p].Succ = append(tasks[p].Succ, t.ID)
		}
	}
	return b.dag
}

// choleskyTasks is the task count of the right-looking (or left-looking)
// Cholesky DAG on p tiles: p POTRF, p(p−1)/2 TRSM and SYRK, p(p−1)(p−2)/6
// GEMM.
func choleskyTasks(p int) int { return p * (p + 1) * (p + 2) / 6 }

// luTasks is the task count of the LU and QR DAGs on p tiles: step k issues
// (p−k)² tasks.
func luTasks(p int) int { return p * (p + 1) * (2*p + 1) / 6 }

// Cholesky builds the task graph of the tiled Cholesky factorization of a
// p×p tiled matrix (Algorithm 1; Figure 1 of the paper shows p = 5).
// Task counts: p POTRF, p(p−1)/2 TRSM, p(p−1)/2 SYRK, p(p−1)(p−2)/6 GEMM.
func Cholesky(p int) *DAG {
	b := newBuilder("cholesky", p, choleskyTasks(p), p, 0)
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
	b := newBuilder("lu", p, luTasks(p), p, 0)
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
	b := newBuilder("qr", p, luTasks(p), p, 0)
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
	b := newBuilder("cholesky", p, choleskyTasks(p), p, 0)
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
