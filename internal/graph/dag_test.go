package graph

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCholeskyTaskCounts(t *testing.T) {
	for p := 1; p <= 12; p++ {
		d := Cholesky(p)
		c := d.CountByKind()
		wantP := p
		wantT := p * (p - 1) / 2
		wantS := p * (p - 1) / 2
		wantG := p * (p - 1) * (p - 2) / 6
		if c[POTRF] != wantP || c[TRSM] != wantT || c[SYRK] != wantS || c[GEMM] != wantG {
			t.Fatalf("p=%d: counts %v, want POTRF=%d TRSM=%d SYRK=%d GEMM=%d",
				p, c, wantP, wantT, wantS, wantG)
		}
		if len(d.Tasks) != wantP+wantT+wantS+wantG {
			t.Fatalf("p=%d: total %d", p, len(d.Tasks))
		}
	}
}

func TestCholeskyFigure1Size(t *testing.T) {
	// Figure 1 of the paper: 5×5 tiles ⇒ 35 tasks (5+10+10+10).
	d := Cholesky(5)
	if len(d.Tasks) != 35 {
		t.Fatalf("5×5 Cholesky has %d tasks, want 35", len(d.Tasks))
	}
}

func TestCholeskyValid(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16} {
		if err := Cholesky(p).Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestCholeskySingleRootAndExit(t *testing.T) {
	d := Cholesky(6)
	roots := rootsOf(d)
	if len(roots) != 1 || d.Tasks[roots[0]].Kind != POTRF || d.Tasks[roots[0]].K != 0 {
		t.Fatalf("expected single root POTRF_0, got %v", roots)
	}
	var exits []int
	for _, tk := range d.Tasks {
		if len(tk.Succ) == 0 {
			exits = append(exits, tk.ID)
		}
	}
	if len(exits) != 1 || d.Tasks[exits[0]].Kind != POTRF || d.Tasks[exits[0]].K != 5 {
		t.Fatalf("expected single exit POTRF_5, got %v", exits)
	}
}

// rootsOf returns the IDs of d's tasks without predecessors.
func rootsOf(d *DAG) []int {
	var r []int
	for _, t := range d.Tasks {
		if len(t.Pred) == 0 {
			r = append(r, t.ID)
		}
	}
	return r
}

func TestCholeskyPotrfChainIsPath(t *testing.T) {
	// The paper uses the fact that all p POTRF tasks lie on a single path
	// POTRF_k → TRSM_{k+1,k} → SYRK_{k+1,k} → POTRF_{k+1}.
	d := Cholesky(8)
	byName := map[string]*Task{}
	for _, tk := range d.Tasks {
		byName[tk.Name()] = tk
	}
	reach := func(from, to *Task) bool {
		seen := map[int]bool{from.ID: true}
		stack := []int{from.ID}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if id == to.ID {
				return true
			}
			for _, s := range d.Tasks[id].Succ {
				if !seen[s] {
					seen[s] = true
					stack = append(stack, s)
				}
			}
		}
		return false
	}
	for k := 0; k < 7; k++ {
		a := byName[taskName(POTRF, -1, -1, k)]
		b := byName[taskName(POTRF, -1, -1, k+1)]
		if a == nil || b == nil {
			t.Fatal("missing POTRF task")
		}
		if !reach(a, b) {
			t.Fatalf("POTRF_%d does not reach POTRF_%d", k, k+1)
		}
	}
}

func taskName(kind Kind, i, j, k int) string {
	return (&Task{Kind: kind, I: i, J: j, K: k}).Name()
}

func TestCholeskyKnownDependencies(t *testing.T) {
	d := Cholesky(3)
	byName := map[string]*Task{}
	for _, tk := range d.Tasks {
		byName[tk.Name()] = tk
	}
	hasEdge := func(from, to string) bool {
		a, b := byName[from], byName[to]
		if a == nil || b == nil {
			t.Fatalf("missing task %s or %s", from, to)
		}
		return slices.Contains(a.Succ, b.ID)
	}
	for _, e := range [][2]string{
		{"POTRF_0", "TRSM_1_0"},
		{"POTRF_0", "TRSM_2_0"},
		{"TRSM_1_0", "SYRK_1_0"},
		{"TRSM_1_0", "GEMM_2_1_0"},
		{"TRSM_2_0", "GEMM_2_1_0"},
		{"SYRK_1_0", "POTRF_1"},
		{"POTRF_1", "TRSM_2_1"},
		{"GEMM_2_1_0", "TRSM_2_1"},
		{"TRSM_2_1", "SYRK_2_1"},
		{"SYRK_2_0", "SYRK_2_1"}, // in-place updates of A22 serialize
		{"SYRK_2_1", "POTRF_2"},
	} {
		if !hasEdge(e[0], e[1]) {
			t.Fatalf("missing edge %s → %s", e[0], e[1])
		}
	}
	if hasEdge("POTRF_0", "POTRF_1") {
		t.Fatal("unexpected direct edge POTRF_0 → POTRF_1")
	}
}

func TestTaskNames(t *testing.T) {
	d := Cholesky(5)
	want := map[string]bool{"POTRF_0": true, "TRSM_4_2": true, "SYRK_4_3": true, "GEMM_4_2_1": true}
	for _, tk := range d.Tasks {
		delete(want, tk.Name())
	}
	if len(want) != 0 {
		t.Fatalf("missing task names: %v", want)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	f := func(seed int64) bool {
		p := int(seed%6) + 2
		d := Cholesky(p)
		order, err := d.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, len(d.Tasks))
		for i, id := range order {
			pos[id] = i
		}
		for _, tk := range d.Tasks {
			for _, s := range tk.Succ {
				if pos[tk.ID] >= pos[s] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCycleDetection(t *testing.T) {
	d := &DAG{Tasks: []*Task{
		{ID: 0, Succ: []int{1}, Pred: []int{1}},
		{ID: 1, Succ: []int{0}, Pred: []int{0}},
	}}
	if _, err := d.TopoOrder(); err == nil {
		t.Fatal("expected cycle error")
	}
	if err := d.Validate(); err == nil {
		t.Fatal("expected Validate to fail on cycle")
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	d := &DAG{Tasks: []*Task{
		{ID: 0, Succ: []int{1}},
		{ID: 1}, // missing Pred back-link
	}}
	if err := d.Validate(); err == nil {
		t.Fatal("expected Validate to fail on asymmetric edge")
	}
}

// TestValidateRejectsMalformed: every structural defect is a Validate error
// naming the offending task or edge, and TopoOrder returns the same error.
// An edge listed more often on one side than the other is a defect even
// when both sides name it.
func TestValidateRejectsMalformed(t *testing.T) {
	for _, c := range []struct {
		name  string
		tasks []*Task
		want  string
	}{
		{"id mismatch", []*Task{{ID: 1}}, "task at index 0 has ID 1"},
		{"self-loop", []*Task{{ID: 0, Succ: []int{0}, Pred: []int{0}}}, "self-loop on task 0"},
		{"dangling successor", []*Task{{ID: 0, Succ: []int{3}}}, "dangling successor 3 of task 0"},
		{"dangling predecessor", []*Task{{ID: 0, Pred: []int{-1}}}, "dangling predecessor -1 of task 0"},
		{"missing reverse link", []*Task{{ID: 0, Succ: []int{1}}, {ID: 1}}, "edge 0→1 missing reverse link"},
		{"missing forward link", []*Task{{ID: 0}, {ID: 1, Pred: []int{0}}}, "edge 0→1 missing forward link"},
		{"duplicate successor", []*Task{{ID: 0, Succ: []int{1, 1}}, {ID: 1, Pred: []int{0}}},
			"edge 0→1 listed 2 times in Succ of 0 but 1 times in Pred of 1"},
		{"duplicate predecessor", []*Task{{ID: 0, Succ: []int{1}}, {ID: 1, Pred: []int{0, 0}}},
			"edge 0→1 listed 1 times in Succ of 0 but 2 times in Pred of 1"},
		{"cycle", []*Task{{ID: 0, Succ: []int{1}, Pred: []int{1}}, {ID: 1, Succ: []int{0}, Pred: []int{0}}},
			"cycle detected (0 of 2 tasks ordered)"},
	} {
		d := &DAG{Tasks: c.tasks}
		err := d.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", c.name, err, c.want)
		}
		if _, terr := d.TopoOrder(); terr != err {
			t.Errorf("%s: TopoOrder error %v, want Validate's %v", c.name, terr, err)
		}
	}
}

// TestValidateAcceptsSymmetricMultiEdge: an edge listed equally often on
// both sides is consistent, and the order still respects it.
func TestValidateAcceptsSymmetricMultiEdge(t *testing.T) {
	d := &DAG{Tasks: []*Task{{ID: 0, Succ: []int{1, 1}}, {ID: 1, Pred: []int{0, 0}}}}
	order, err := d.TopoOrder()
	if err != nil || !slices.Equal(order, []int{0, 1}) {
		t.Fatalf("TopoOrder = %v, %v; want [0 1], nil", order, err)
	}
}

func TestBottomLevelsUnitWeights(t *testing.T) {
	d := Cholesky(3)
	bl, err := d.BottomLevels(func(*Task) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	// Longest chain for p=3: POTRF_0→TRSM_1_0→SYRK_1_0→POTRF_1→TRSM_2_1→SYRK_2_1→POTRF_2 = 7 tasks.
	best := 0.0
	for _, v := range bl {
		if v > best {
			best = v
		}
	}
	if best != 7 {
		t.Fatalf("max bottom level = %g, want 7", best)
	}
	// Exit task has bottom level equal to its own weight.
	for _, tk := range d.Tasks {
		if len(tk.Succ) == 0 && bl[tk.ID] != 1 {
			t.Fatalf("exit task bottom level = %g, want 1", bl[tk.ID])
		}
	}
}

func TestCriticalPathMonotoneInP(t *testing.T) {
	w := func(*Task) float64 { return 1 }
	prev := 0.0
	for p := 1; p <= 10; p++ {
		cp, path, err := Cholesky(p).CriticalPath(w)
		if err != nil {
			t.Fatal(err)
		}
		if cp < prev {
			t.Fatalf("critical path decreased at p=%d", p)
		}
		if float64(len(path)) != cp {
			t.Fatalf("unit-weight path length %d != cp %g", len(path), cp)
		}
		prev = cp
	}
}

func TestCriticalPathUnitLength(t *testing.T) {
	// Unit weights: chain POTRF,(TRSM,SYRK)^(p-1) ⇒ 3p−2 tasks.
	for p := 1; p <= 8; p++ {
		cp, _, err := Cholesky(p).CriticalPath(func(*Task) float64 { return 1 })
		if err != nil {
			t.Fatal(err)
		}
		if int(cp) != 3*p-2 {
			t.Fatalf("p=%d: cp=%g, want %d", p, cp, 3*p-2)
		}
	}
}

func TestCriticalPathEdgesExist(t *testing.T) {
	d := Cholesky(6)
	_, path, err := d.CriticalPath(func(tk *Task) float64 { return float64(tk.Kind) + 1 })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(path); i++ {
		if !slices.Contains(d.Tasks[path[i]].Succ, path[i+1]) {
			t.Fatalf("path step %d→%d is not an edge", path[i], path[i+1])
		}
	}
}

func TestTotalWeight(t *testing.T) {
	d := Cholesky(4)
	if got := d.TotalWeight(func(*Task) float64 { return 2 }); got != float64(2*len(d.Tasks)) {
		t.Fatalf("TotalWeight = %g", got)
	}
}

func TestFootprints(t *testing.T) {
	d := Cholesky(4)
	for _, tk := range d.Tasks {
		var rw int
		for _, r := range tk.Footprint {
			if r.Mode == ReadWrite {
				rw++
			}
			if r.J > r.I {
				t.Fatalf("task %s references upper tile (%d,%d)", tk.Name(), r.I, r.J)
			}
		}
		if rw != 1 {
			t.Fatalf("task %s has %d RW tiles, want 1", tk.Name(), rw)
		}
		wantReads := map[Kind]int{POTRF: 0, TRSM: 1, SYRK: 1, GEMM: 2}[tk.Kind]
		if len(tk.Footprint)-rw != wantReads {
			t.Fatalf("task %s has %d read tiles, want %d", tk.Name(), len(tk.Footprint)-rw, wantReads)
		}
	}
}

func TestKindString(t *testing.T) {
	if POTRF.String() != "POTRF" || GEMM.String() != "GEMM" || TSMQR.String() != "TSMQR" {
		t.Fatal("Kind.String broken")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("out-of-range Kind.String broken")
	}
	if Read.String() != "R" || ReadWrite.String() != "RW" {
		t.Fatal("Access.String broken")
	}
}

func TestDAGKinds(t *testing.T) {
	ks := Cholesky(5).Kinds()
	if len(ks) != 4 || ks[0] != POTRF || ks[3] != GEMM {
		t.Fatalf("Kinds = %v", ks)
	}
	// p=1 has only POTRF.
	ks = Cholesky(1).Kinds()
	if len(ks) != 1 || ks[0] != POTRF {
		t.Fatalf("Kinds(p=1) = %v", ks)
	}
}

func TestLUValidAndCounts(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6} {
		d := LU(p)
		if err := d.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		c := d.CountByKind()
		if c[GETRF] != p || c[TRSM] != p*(p-1) || c[GEMM] != p*(p-1)*(2*p-1)/6 {
			t.Fatalf("p=%d: LU counts %v", p, c)
		}
	}
}

func TestQRValidAndCounts(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6} {
		d := QR(p)
		if err := d.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		c := d.CountByKind()
		if c[GEQRT] != p || c[TSQRT] != p*(p-1)/2 || c[ORMQR] != p*(p-1)/2 {
			t.Fatalf("p=%d: QR counts %v", p, c)
		}
	}
}

func TestQRTSQRTSerialization(t *testing.T) {
	// TSQRT tasks of one panel all RW the diagonal tile, so they must chain.
	d := QR(4)
	byName := map[string]*Task{}
	for _, tk := range d.Tasks {
		byName[tk.Name()] = tk
	}
	a := byName["TSQRT_1_0"]
	b := byName["TSQRT_2_0"]
	if a == nil || b == nil {
		t.Fatal("missing TSQRT tasks")
	}
	if !slices.Contains(a.Succ, b.ID) {
		t.Fatal("TSQRT_1_0 → TSQRT_2_0 edge missing")
	}
}

func TestGemmCountMatchesFigure(t *testing.T) {
	// Figure 1 (p=5) shows 10 GEMMs.
	if Cholesky(5).CountByKind()[GEMM] != 10 {
		t.Fatal("p=5 GEMM count != 10")
	}
}

func TestRandomLayeredValid(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		d := RandomLayered(6, 5, 0.4, seed)
		if err := d.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(d.Tasks) < 6 {
			t.Fatalf("seed %d: too few tasks", seed)
		}
	}
}

func TestRandomLayeredConnected(t *testing.T) {
	// Every non-first-layer task has at least one predecessor.
	d := RandomLayered(5, 4, 0.01, 7) // tiny edgeP forces the fallback edge
	for _, tk := range d.Tasks {
		if tk.I > 0 && len(tk.Pred) == 0 {
			t.Fatalf("task %d in layer %d has no predecessor", tk.ID, tk.I)
		}
	}
}

func TestRandomLayeredDeterministic(t *testing.T) {
	a := RandomLayered(4, 4, 0.5, 3)
	b := RandomLayered(4, 4, 0.5, 3)
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("not deterministic")
	}
	for i := range a.Tasks {
		if a.Tasks[i].Kind != b.Tasks[i].Kind || len(a.Tasks[i].Pred) != len(b.Tasks[i].Pred) {
			t.Fatal("not deterministic")
		}
	}
}

func TestRandomLayeredFootprints(t *testing.T) {
	d := RandomLayered(4, 4, 0.5, 9)
	for _, tk := range d.Tasks {
		rw := 0
		for _, r := range tk.Footprint {
			if r.Mode == ReadWrite {
				rw++
			}
		}
		if rw != 1 {
			t.Fatalf("task %d has %d RW tiles", tk.ID, rw)
		}
		if len(tk.Footprint)-1 < len(tk.Pred) && tk.I > 0 {
			// reads at least... each pred contributed a read tile (dups
			// impossible: preds have distinct (I,J)).
			t.Fatalf("task %d: %d reads < %d preds", tk.ID, len(tk.Footprint)-1, len(tk.Pred))
		}
	}
}

func TestDOTExport(t *testing.T) {
	d := Cholesky(3)
	dot := d.DOT()
	for _, want := range []string{
		"digraph cholesky {",
		`"POTRF_0"`,
		`"POTRF_0" -> "TRSM_1_0";`,
		`"SYRK_2_1" -> "POTRF_2";`,
		"octagon",
	} {
		if !containsStr(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Edge count equals the sum of successor lists.
	edges := 0
	for _, tk := range d.Tasks {
		edges += len(tk.Succ)
	}
	if got := countStr(dot, " -> "); got != edges {
		t.Fatalf("%d edges rendered, want %d", got, edges)
	}
}

func containsStr(s, sub string) bool { return len(s) >= len(sub) && strings.Contains(s, sub) }
func countStr(s, sub string) int     { return strings.Count(s, sub) }

func TestBandedCholeskyDegeneratesToDense(t *testing.T) {
	for _, p := range []int{2, 5, 8} {
		banded := BandedCholesky(p, p-1)
		dense := Cholesky(p)
		if len(banded.Tasks) != len(dense.Tasks) {
			t.Fatalf("p=%d: banded(bw=p-1) has %d tasks, dense %d",
				p, len(banded.Tasks), len(dense.Tasks))
		}
	}
}

func TestBandedCholeskyValidAndSmaller(t *testing.T) {
	p := 12
	prev := 1 << 30
	for _, bw := range []int{11, 6, 3, 1} {
		d := BandedCholesky(p, bw)
		if err := d.Validate(); err != nil {
			t.Fatalf("bw=%d: %v", bw, err)
		}
		if len(d.Tasks) >= prev {
			t.Fatalf("bw=%d: task count %d not shrinking", bw, len(d.Tasks))
		}
		prev = len(d.Tasks)
		// Every task stays inside the band.
		for _, tk := range d.Tasks {
			for _, ref := range tk.Footprint {
				if ref.I-ref.J > bw {
					t.Fatalf("bw=%d: task %s touches out-of-band tile (%d,%d)",
						bw, tk.Name(), ref.I, ref.J)
				}
			}
		}
	}
	// bw=1: p POTRF + (p−1) TRSM + (p−1) SYRK, no GEMM.
	d := BandedCholesky(p, 1)
	c := d.CountByKind()
	if c[POTRF] != p || c[TRSM] != p-1 || c[SYRK] != p-1 || c[GEMM] != 0 {
		t.Fatalf("bw=1 counts: %v", c)
	}
}

func TestBandedCholeskyChainPreserved(t *testing.T) {
	// The POTRF chain is inside every band: the critical path with unit
	// weights is still 3p−2 for bw ≥ 1.
	d := BandedCholesky(9, 2)
	cp, _, err := d.CriticalPath(func(*Task) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if int(cp) != 3*9-2 {
		t.Fatalf("cp = %g, want %d", cp, 3*9-2)
	}
}

func TestMergeIndependentDAGs(t *testing.T) {
	a := Cholesky(4)
	b := Cholesky(6)
	m := Merge(a, b)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Tasks) != len(a.Tasks)+len(b.Tasks) {
		t.Fatalf("merged %d tasks, want %d", len(m.Tasks), len(a.Tasks)+len(b.Tasks))
	}
	// Two independent components: two roots.
	if got := len(rootsOf(m)); got != 2 {
		t.Fatalf("%d roots, want 2", got)
	}
	// Footprints must not collide across batches.
	tiles := map[[2]int]int{} // tile → batch (from task index range)
	for _, tk := range m.Tasks {
		batch := 0
		if tk.ID >= len(a.Tasks) {
			batch = 1
		}
		for _, ref := range tk.Footprint {
			key := [2]int{ref.I, ref.J}
			if prev, ok := tiles[key]; ok && prev != batch {
				t.Fatalf("tile %v shared across batches", key)
			}
			tiles[key] = batch
		}
	}
	// Critical path of the merge = max of the parts (unit weights).
	cpM, _, _ := m.CriticalPath(func(*Task) float64 { return 1 })
	cpB, _, _ := b.CriticalPath(func(*Task) float64 { return 1 })
	if cpM != cpB {
		t.Fatalf("merged cp %g, want %g", cpM, cpB)
	}
}

func TestMergeSingleIsIdentityShaped(t *testing.T) {
	a := Cholesky(5)
	m := Merge(a)
	if len(m.Tasks) != len(a.Tasks) {
		t.Fatal("single merge changed task count")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLeftLookingSameCountsDifferentShape(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		ll := CholeskyLeftLooking(p)
		rl := Cholesky(p)
		if err := ll.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		cl, cr := ll.CountByKind(), rl.CountByKind()
		for _, k := range CholeskyKinds {
			if cl[k] != cr[k] {
				t.Fatalf("p=%d %v: %d vs %d", p, k, cl[k], cr[k])
			}
		}
	}
	// Left-looking delays updates: with unit weights its critical path is at
	// least the right-looking one.
	ll := CholeskyLeftLooking(8)
	rl := Cholesky(8)
	w := func(*Task) float64 { return 1 }
	cpl, _, _ := ll.CriticalPath(w)
	cpr, _, _ := rl.CriticalPath(w)
	if cpl < cpr {
		t.Fatalf("left-looking cp %g < right-looking %g", cpl, cpr)
	}
}

func TestVariantsInduceIsomorphicDAGs(t *testing.T) {
	// The right- and left-looking submission orders yield the same dependency
	// structure under dataflow inference: match tasks by (kind, i, j, k) and
	// compare edge sets.
	for _, p := range []int{3, 6} {
		rl := Cholesky(p)
		ll := CholeskyLeftLooking(p)
		key := func(tk *Task) [4]int { return [4]int{int(tk.Kind), tk.I, tk.J, tk.K} }
		rlByKey := map[[4]int]*Task{}
		for _, tk := range rl.Tasks {
			rlByKey[key(tk)] = tk
		}
		llByKey := map[[4]int]*Task{}
		for _, tk := range ll.Tasks {
			llByKey[key(tk)] = tk
		}
		if len(rlByKey) != len(llByKey) {
			t.Fatalf("p=%d: different task sets", p)
		}
		edgeSet := func(d *DAG, byKey map[[4]int]*Task) map[[8]int]bool {
			out := map[[8]int]bool{}
			for _, tk := range d.Tasks {
				for _, s := range tk.Succ {
					a, b := key(tk), key(d.Tasks[s])
					out[[8]int{a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]}] = true
				}
			}
			return out
		}
		er := edgeSet(rl, rlByKey)
		el := edgeSet(ll, llByKey)
		if len(er) != len(el) {
			t.Fatalf("p=%d: %d vs %d edges", p, len(er), len(el))
		}
		for e := range er {
			if !el[e] {
				t.Fatalf("p=%d: edge %v only in right-looking", p, e)
			}
		}
	}
}

func TestComputeStatsCholesky(t *testing.T) {
	d := Cholesky(8)
	st, err := d.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks != len(d.Tasks) || st.RootCount != 1 || st.Exits != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.CriticalPathLen != 3*8-2 {
		t.Fatalf("cp len %d, want %d", st.CriticalPathLen, 3*8-2)
	}
	wantAvg := float64(len(d.Tasks)) / float64(3*8-2)
	if st.AvgParallelism != wantAvg {
		t.Fatalf("avg parallelism %g, want %g", st.AvgParallelism, wantAvg)
	}
	if st.MaxWidth < 2 {
		t.Fatal("width too small")
	}
	edges := 0
	for _, tk := range d.Tasks {
		edges += len(tk.Succ)
	}
	if st.Edges != edges {
		t.Fatalf("edges %d, want %d", st.Edges, edges)
	}
}

func TestComputeStatsGrowsWithSize(t *testing.T) {
	// The paper's saturation argument: average parallelism grows with the
	// matrix size (≈ p²/9 for Cholesky).
	prev := 0.0
	for _, p := range []int{4, 8, 16, 32} {
		st, err := Cholesky(p).ComputeStats()
		if err != nil {
			t.Fatal(err)
		}
		if st.AvgParallelism <= prev {
			t.Fatalf("parallelism not growing at p=%d", p)
		}
		prev = st.AvgParallelism
	}
	// At p=32 the DAG can saturate far more than Mirage's 12 workers.
	if prev < 12 {
		t.Fatalf("p=32 avg parallelism %g should exceed the worker count", prev)
	}
}
