// Package graph models task graphs (DAGs) of tiled dense linear algebra
// algorithms: tasks with kernel kinds, data footprints over matrix tiles, and
// the dependency structure induced by sequential-consistency dataflow
// analysis — exactly how StarPU derives the DAG from the task submission
// order in Algorithm 1 of the paper.
//
// Besides the Cholesky builder (the paper's subject), LU and QR builders are
// provided for the conclusion's "other dense factorizations" extension; all
// downstream machinery (bounds, schedulers, simulator) is DAG-generic.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// Kind identifies a kernel subroutine. The timing tables of
// internal/platform are keyed by Kind.
type Kind int

// Kernel kinds across the supported factorizations. POTRF..GEMM are the four
// Cholesky kernels from the paper; GETRF is used by LU, GEQRT..TSMQR by QR.
const (
	POTRF Kind = iota
	TRSM
	SYRK
	GEMM
	GETRF
	GEQRT
	ORMQR
	TSQRT
	TSMQR
	TRSV     // triangular solve on a vector chunk (the Ly=b / Lᵀx=y pipeline)
	GEMV     // matrix-vector update on a vector chunk
	SPLIT    // tile-size conversion: repack one tile into finer subtiles
	MERGE    // tile-size conversion: repack finer subtiles into one tile
	NumKinds // sentinel: number of kernel kinds
)

var kindNames = [NumKinds]string{"POTRF", "TRSM", "SYRK", "GEMM", "GETRF", "GEQRT", "ORMQR", "TSQRT", "TSMQR", "TRSV", "GEMV", "SPLIT", "MERGE"}

// ConversionKinds lists the tile-size conversion pseudo-kernels introduced by
// the mixed-tile-size Cholesky builder (CholeskySplit). They move data rather
// than compute, so platform timing tables never list them; their cost comes
// from the platform cost model's repacking rate.
var ConversionKinds = []Kind{SPLIT, MERGE}

// IsConversion reports whether k is a tile-size conversion pseudo-kernel.
func (k Kind) IsConversion() bool { return k == SPLIT || k == MERGE }

// String returns the LAPACK-style kernel name.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// CholeskyKinds lists the kernel kinds of the tiled Cholesky factorization in
// the order used throughout the paper (Table I, the LP formulation, ...).
var CholeskyKinds = []Kind{POTRF, TRSM, SYRK, GEMM}

// Access is a data-access mode of a task on a tile.
type Access uint8

// Access modes. ReadWrite covers the in-place updates of Algorithm 1.
const (
	Read Access = iota
	ReadWrite
)

// String names the access mode.
func (a Access) String() string {
	if a == Read {
		return "R"
	}
	return "RW"
}

// TileRef is one entry of a task's data footprint: tile (I, J) accessed with
// the given mode. Footprints drive the simulator's data-transfer model.
type TileRef struct {
	I, J int
	Mode Access
}

// Task is a vertex of the DAG.
type Task struct {
	ID   int
	Kind Kind
	// I, J, K are the loop indices of Algorithm 1 identifying the task
	// (unused indices are −1): POTRF_k, TRSM_i_k, SYRK_j_k, GEMM_i_j_k.
	I, J, K   int
	Footprint []TileRef
	Succ      []int // successor task IDs
	Pred      []int // predecessor task IDs
	// NB is the tile size (in matrix elements) the task operates on. Zero —
	// the value for every task of the uniform builders — means the platform's
	// reference tile size; mixed-tile-size builders set it explicitly. For
	// conversion tasks (SPLIT/MERGE) it is the size of the tile being
	// converted, i.e. the coarse side.
	NB int
}

// Name renders the task in the paper's Figure-1 naming scheme
// (e.g. "GEMM_4_2_1").
func (t *Task) Name() string {
	switch t.Kind {
	case POTRF, GETRF, GEQRT, TRSV:
		return fmt.Sprintf("%s_%d", t.Kind, t.K)
	case SYRK:
		return fmt.Sprintf("%s_%d_%d", t.Kind, t.J, t.K)
	case TRSM, ORMQR, TSQRT, GEMV:
		if t.J >= 0 && t.I >= 0 { // LU/QR tasks carrying both indices
			return fmt.Sprintf("%s_%d_%d_%d", t.Kind, t.I, t.J, t.K)
		}
		if t.I < 0 {
			return fmt.Sprintf("%s_%d_%d", t.Kind, t.J, t.K)
		}
		return fmt.Sprintf("%s_%d_%d", t.Kind, t.I, t.K)
	default:
		return fmt.Sprintf("%s_%d_%d_%d", t.Kind, t.I, t.J, t.K)
	}
}

// DAG is a task graph over a P×P tiled matrix.
//
// A DAG is frozen once any census query has run. Validate, TopoOrder,
// BottomLevels, CriticalPath, ComputeStats, Kinds, CountByKind and Groups
// all read one census — topological order, validation result, kind and
// (kind, nb) group counts — derived from Tasks exactly once,
// on the first such call, and shared by every later caller (concurrent ones
// included). Builders therefore finish wiring Tasks before the first query;
// code that wants a different graph mutates a fresh DAG, never one that has
// been queried.
type DAG struct {
	Algorithm string // "cholesky", "lu", "qr"
	P         int    // tile count per dimension
	Tasks     []*Task

	// TileNB maps a tile coordinate to its size in elements for mixed-tile-
	// size DAGs; nil (the uniform builders) or a missing entry means the
	// platform reference size. Consumers must not range over the map in
	// deterministic code — look tiles up by coordinate instead.
	TileNB map[[2]int]int

	censusOnce sync.Once
	census     census
}

// Group is one (kind, tile size) family of tasks and its population — the
// unit the bound LPs and the CP solver price tasks by.
type Group struct {
	Kind  Kind
	NB    int
	Count int
}

// census holds every fact derived from a frozen DAG's task structure.
type census struct {
	err    error        // Validate result; order is nil when set
	order  []int        // topological order, smallest ready ID first
	kinds  []Kind       // distinct kinds, ascending
	counts map[Kind]int // tasks per kind
	groups []Group      // (kind, nb) populations, ordered by nb then kind
}

// facts returns the DAG's census, deriving it on first use.
//
//chol:hotpath queried per simulation prep, scheduler init and bound LP; steady state must not rescan
func (d *DAG) facts() *census {
	d.censusOnce.Do(d.takeCensus) //chollint:alloc one-time census build, amortized across all queries
	return &d.census
}

// takeCensus derives the census from Tasks. The group scan runs on any task
// list; the order exists only when the structure validates.
func (d *DAG) takeCensus() {
	c := &d.census
	for _, t := range d.Tasks {
		g := findGroup(c.groups, t.Kind, t.NB)
		if g == len(c.groups) {
			c.groups = append(c.groups, Group{Kind: t.Kind, NB: t.NB})
		}
		c.groups[g].Count++
	}
	sort.Slice(c.groups, func(i, j int) bool {
		gi, gj := c.groups[i], c.groups[j]
		if gi.NB != gj.NB {
			return gi.NB < gj.NB
		}
		return gi.Kind < gj.Kind
	})
	c.counts = make(map[Kind]int, NumKinds)
	for _, g := range c.groups {
		if c.counts[g.Kind] == 0 {
			c.kinds = append(c.kinds, g.Kind)
		}
		c.counts[g.Kind] += g.Count
	}
	sort.Slice(c.kinds, func(i, j int) bool { return c.kinds[i] < c.kinds[j] })
	if c.err = d.checkStructure(); c.err == nil {
		c.order, c.err = d.kahn()
	}
}

// findGroup returns the index of group (k, nb) in gs, or len(gs). A DAG has
// a handful of groups, so a linear scan beats hashing.
func findGroup(gs []Group, k Kind, nb int) int {
	for i, g := range gs {
		if g.Kind == k && g.NB == nb {
			return i
		}
	}
	return len(gs)
}

// Kinds returns the distinct kernel kinds present, in ascending order.
func (d *DAG) Kinds() []Kind {
	return append([]Kind(nil), d.facts().kinds...)
}

// CountByKind returns the number of tasks of each kind.
func (d *DAG) CountByKind() map[Kind]int {
	counts := d.facts().counts
	c := make(map[Kind]int, len(counts))
	for k, n := range counts {
		c[k] = n
	}
	return c
}

// Groups returns the (kind, nb) task populations present, ordered by tile
// size first (nb = 0 leading) then kind. A uniform DAG yields one group per
// entry of Kinds, in the same order.
func (d *DAG) Groups() []Group {
	return append([]Group(nil), d.facts().groups...)
}

// TileSize returns the size in elements of tile (i, j), or 0 if the tile is
// at the platform reference size (always the case for uniform DAGs).
func (d *DAG) TileSize(i, j int) int {
	if d.TileNB == nil {
		return 0
	}
	return d.TileNB[[2]int{i, j}]
}

// TopoOrder returns a topological order of task IDs (Kahn's algorithm,
// smallest-ID-first for determinism), or the Validate error if the graph is
// malformed or cyclic. The slice is the caller's to modify.
func (d *DAG) TopoOrder() ([]int, error) {
	c := d.facts()
	if c.err != nil {
		return nil, c.err
	}
	return append([]int(nil), c.order...), nil
}

// Validate checks structural invariants: IDs dense and matching slice index,
// symmetric Succ/Pred, no self-loops, acyclicity.
func (d *DAG) Validate() error {
	return d.facts().err
}

// checkStructure is Validate minus acyclicity, in O(V+E): Pred is
// transposed by counting sort, and each task's Succ list is compared with
// the tasks whose Pred lists name it as a multiset, through per-task stamps.
func (d *DAG) checkStructure() error {
	n := len(d.Tasks)
	off := make([]int32, n+1) // off[p+1] counts the Pred entries naming p, then prefix-sums into offsets
	for i, t := range d.Tasks {
		if t.ID != i {
			return fmt.Errorf("graph: task at index %d has ID %d", i, t.ID)
		}
		for _, s := range t.Succ {
			if s == t.ID {
				return fmt.Errorf("graph: self-loop on task %d", t.ID)
			}
			if s < 0 || s >= n {
				return fmt.Errorf("graph: dangling successor %d of task %d", s, t.ID)
			}
		}
		for _, p := range t.Pred {
			if p < 0 || p >= n {
				return fmt.Errorf("graph: dangling predecessor %d of task %d", p, t.ID)
			}
			off[p+1]++
		}
	}
	for p := range n {
		off[p+1] += off[p]
	}
	predOf := make([]int32, off[n]) // predOf[off[p]:off[p+1]]: the tasks whose Pred names p
	fill := make([]int32, n)
	copy(fill, off)
	for _, t := range d.Tasks {
		for _, p := range t.Pred {
			predOf[fill[p]] = int32(t.ID)
			fill[p]++
		}
	}
	// Per task p, bal[s] counts s in p's Succ minus p in s's Pred; stamp[s]
	// marks bal[s] as belonging to p, so nothing is cleared between tasks.
	// bal reuses fill's storage, which the transpose no longer needs.
	bal, stamp := fill, make([]int32, n)
	for p, t := range d.Tasks {
		mark := int32(p + 1)
		for _, s := range t.Succ {
			if stamp[s] != mark {
				stamp[s], bal[s] = mark, 0
			}
			bal[s]++
		}
		in := predOf[off[p]:off[p+1]]
		for _, s := range in {
			if stamp[s] != mark {
				stamp[s], bal[s] = mark, 0
			}
			bal[s]--
		}
		for _, s := range t.Succ {
			if bal[s] != 0 {
				return d.edgeError(p, s)
			}
		}
		for _, s := range in {
			if bal[s] != 0 {
				return d.edgeError(p, int(s))
			}
		}
	}
	return nil
}

// edgeError describes how edge p→s is listed asymmetrically.
func (d *DAG) edgeError(p, s int) error {
	inSucc, inPred := count(d.Tasks[p].Succ, s), count(d.Tasks[s].Pred, p)
	switch {
	case inPred == 0:
		return fmt.Errorf("graph: edge %d→%d missing reverse link", p, s)
	case inSucc == 0:
		return fmt.Errorf("graph: edge %d→%d missing forward link", p, s)
	}
	return fmt.Errorf("graph: edge %d→%d listed %d times in Succ of %d but %d times in Pred of %d", p, s, inSucc, p, inPred, s)
}

func count(s []int, v int) int {
	c := 0
	for _, x := range s {
		if x == v {
			c++
		}
	}
	return c
}

// kahn orders a structurally valid DAG by Kahn's algorithm, always taking
// the smallest ready ID next. When every edge runs from a smaller to a
// larger ID — every builder, Merge and RandomLayered — that order is the
// identity: once IDs 0…k−1 are ordered, task k's predecessors all are, so
// it is ready and the smallest unordered ID. Other DAGs pop a binary
// min-heap frontier, which also detects cycles.
func (d *DAG) kahn() ([]int, error) {
	n := len(d.Tasks)
	order := make([]int, 0, n)
	if d.forwardEdges() {
		for id := range n {
			order = append(order, id)
		}
		return order, nil
	}
	indeg := make([]int32, n)
	var ready minHeap
	for id, t := range d.Tasks {
		indeg[id] = int32(len(t.Pred))
		if indeg[id] == 0 {
			ready.push(id)
		}
	}
	for len(ready) > 0 {
		id := ready.pop()
		order = append(order, id)
		for _, s := range d.Tasks[id].Succ {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d tasks ordered)", len(order), n)
	}
	return order, nil
}

// forwardEdges reports whether every edge runs from a smaller to a larger ID.
func (d *DAG) forwardEdges() bool {
	for id, t := range d.Tasks {
		for _, s := range t.Succ {
			if s <= id {
				return false
			}
		}
	}
	return true
}

// minHeap is a binary min-heap of task IDs.
type minHeap []int

func (h *minHeap) push(v int) {
	s := append(*h, v)
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if s[up] <= s[i] {
			break
		}
		s[up], s[i] = s[i], s[up]
		i = up
	}
	*h = s
}

func (h *minHeap) pop() int {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && s[l] < s[m] {
			m = l
		}
		if r < n && s[r] < s[m] {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// BottomLevels returns, for each task, the weight of the longest path from
// the task to an exit task, node weights given by weight (typically a kernel
// execution-time estimate). This is the HEFT priority used by dmdas.
func (d *DAG) BottomLevels(weight func(*Task) float64) ([]float64, error) {
	c := d.facts()
	if c.err != nil {
		return nil, c.err
	}
	order := c.order
	bl := make([]float64, len(d.Tasks))
	for i := len(order) - 1; i >= 0; i-- {
		t := d.Tasks[order[i]]
		best := 0.0
		for _, s := range t.Succ {
			if bl[s] > best {
				best = bl[s]
			}
		}
		bl[t.ID] = best + weight(t)
	}
	return bl, nil
}

// CriticalPath returns the length of the longest weighted path in the DAG and
// the task IDs along one such path (entry→exit). With weight = fastest
// execution time per task it is the paper's critical-path bound on makespan.
func (d *DAG) CriticalPath(weight func(*Task) float64) (float64, []int, error) {
	bl, err := d.BottomLevels(weight)
	if err != nil {
		return 0, nil, err
	}
	best, start := 0.0, -1
	for id, v := range bl {
		if v > best || start == -1 {
			best, start = v, id
		}
	}
	if start == -1 {
		return 0, nil, nil
	}
	// Walk down successors, always following the max bottom level.
	path := []int{start}
	cur := start
	for {
		t := d.Tasks[cur]
		next, nb := -1, -1.0
		for _, s := range t.Succ {
			if bl[s] > nb {
				nb, next = bl[s], s
			}
		}
		if next == -1 {
			break
		}
		path = append(path, next)
		cur = next
	}
	return best, path, nil
}

// TotalWeight sums weight over all tasks — the sequential-work term of the
// area bound.
func (d *DAG) TotalWeight(weight func(*Task) float64) float64 {
	s := 0.0
	for _, t := range d.Tasks {
		s += weight(t)
	}
	return s
}

// Stats summarizes a DAG's shape: size, span, and the average-parallelism
// ratio W/CP that decides whether a machine can be saturated (the quantity
// behind the paper's "for large matrices, the task-graph ... exhibits a
// sufficient amount of parallelism").
type Stats struct {
	Tasks            int
	Edges            int
	CriticalPathLen  int     // tasks on the longest unit-weight path
	AvgParallelism   float64 // tasks / critical-path length
	MaxWidth         int     // widest antichain layer (by longest-path depth)
	RootCount, Exits int
}

// ComputeStats derives the structural statistics of the DAG.
func (d *DAG) ComputeStats() (Stats, error) {
	st := Stats{Tasks: len(d.Tasks)}
	c := d.facts()
	if c.err != nil {
		return st, c.err
	}
	depth := make([]int, len(d.Tasks))
	maxDepth := 0
	for _, id := range c.order {
		t := d.Tasks[id]
		st.Edges += len(t.Succ)
		for _, p := range t.Pred {
			if depth[p]+1 > depth[id] {
				depth[id] = depth[p] + 1
			}
		}
		if depth[id] > maxDepth {
			maxDepth = depth[id]
		}
		if len(t.Pred) == 0 {
			st.RootCount++
		}
		if len(t.Succ) == 0 {
			st.Exits++
		}
	}
	st.CriticalPathLen = maxDepth + 1
	if st.CriticalPathLen > 0 {
		st.AvgParallelism = float64(st.Tasks) / float64(st.CriticalPathLen)
	}
	width := make([]int, maxDepth+1)
	for _, dp := range depth {
		width[dp]++
		if width[dp] > st.MaxWidth {
			st.MaxWidth = width[dp]
		}
	}
	return st, nil
}
