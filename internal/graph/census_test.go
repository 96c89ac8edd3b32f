package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// refTopoOrder is the historical sorted-frontier Kahn: re-sort the whole
// ready set and take its smallest ID on every pop. The census's heap
// frontier must reproduce its order exactly.
func refTopoOrder(d *DAG) []int {
	indeg := make([]int, len(d.Tasks))
	for _, t := range d.Tasks {
		indeg[t.ID] = len(t.Pred)
	}
	var frontier []int
	for id, deg := range indeg {
		if deg == 0 {
			frontier = append(frontier, id)
		}
	}
	var order []int
	for len(frontier) > 0 {
		sort.Ints(frontier)
		id := frontier[0]
		frontier = frontier[1:]
		order = append(order, id)
		for _, s := range d.Tasks[id].Succ {
			indeg[s]--
			if indeg[s] == 0 {
				frontier = append(frontier, s)
			}
		}
	}
	return order
}

func checkOrderMatchesRef(t *testing.T, name string, d *DAG) {
	t.Helper()
	got, err := d.TopoOrder()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := refTopoOrder(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: heap Kahn order differs from the sorted-frontier reference", name)
	}
}

func TestTopoOrderMatchesSortedFrontierReference(t *testing.T) {
	for _, p := range []int{1, 2, 5, 9, 16} {
		for name, d := range map[string]*DAG{
			"cholesky":       Cholesky(p),
			"cholesky-split": CholeskySplit(p, p/2, 2, 960),
			"cholesky-left":  CholeskyLeftLooking(p),
			"lu":             LU(p),
			"qr":             QR(p),
			"banded":         BandedCholesky(p, 2),
			"forward-solve":  ForwardSolve(p),
			"backward-solve": BackwardSolve(p),
			"merge":          Merge(Cholesky(p), LU(p), BandedCholesky(p, 1)),
		} {
			checkOrderMatchesRef(t, fmt.Sprintf("%s P=%d", name, p), d)
		}
	}
}

// permutedRandom builds a random DAG whose edges follow a random ranking of
// the IDs, so ready sets hold IDs in no particular order — unlike the
// builders, whose edges always run from lower to higher IDs.
func permutedRandom(n int, edgeP float64, seed int64) *DAG {
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(n)
	byRank := make([]int, n)
	for id, r := range rank {
		byRank[r] = id
	}
	d := &DAG{Algorithm: "random"}
	for id := 0; id < n; id++ {
		d.Tasks = append(d.Tasks, &Task{ID: id, Kind: CholeskyKinds[rng.Intn(len(CholeskyKinds))]})
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < edgeP {
				from, to := d.Tasks[byRank[a]], d.Tasks[byRank[b]]
				from.Succ = append(from.Succ, to.ID)
				to.Pred = append(to.Pred, from.ID)
			}
		}
	}
	return d
}

func TestTopoOrderMatchesReferenceOnRandomDAGs(t *testing.T) {
	f := func(seed int64, layers, width uint8) bool {
		d := RandomLayered(int(layers%12)+1, int(width%8)+1, 0.3, seed)
		g := permutedRandom(int(width%40)+1, 0.15, seed)
		for _, dag := range []*DAG{d, g} {
			got, err := dag.TopoOrder()
			if err != nil || !reflect.DeepEqual(got, refTopoOrder(dag)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCensusConcurrentFirstUse(t *testing.T) {
	// The first census query may come from any number of goroutines at once
	// (a shared DAG in the service cache, parallel sweep workers); under
	// -race they must all see one census.
	const n = 8
	want := struct {
		order  []int
		bl     []float64
		kinds  []Kind
		groups []Group
	}{}
	ref := CholeskySplit(10, 6, 2, 960)
	want.order, _ = ref.TopoOrder()
	want.bl, _ = ref.BottomLevels(func(t *Task) float64 { return float64(t.Kind) + 1 })
	want.kinds, want.groups = ref.Kinds(), ref.Groups()

	d := CholeskySplit(10, 6, 2, 960)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.Validate(); err != nil {
				errs <- err
				return
			}
			order, err := d.TopoOrder()
			if err != nil {
				errs <- err
				return
			}
			bl, err := d.BottomLevels(func(t *Task) float64 { return float64(t.Kind) + 1 })
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(order, want.order) || !reflect.DeepEqual(bl, want.bl) ||
				!reflect.DeepEqual(d.Kinds(), want.kinds) || !reflect.DeepEqual(d.Groups(), want.groups) {
				errs <- fmt.Errorf("concurrent census query disagrees with a fresh DAG's")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTopoOrderReturnsPrivateCopy(t *testing.T) {
	d := Cholesky(6)
	unit := func(*Task) float64 { return 1 }
	before, err := d.BottomLevels(unit)
	if err != nil {
		t.Fatal(err)
	}
	order, _ := d.TopoOrder()
	for i := range order {
		order[i] = 0
	}
	after, err := d.BottomLevels(unit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("mutating TopoOrder's result changed BottomLevels")
	}
	if again, _ := d.TopoOrder(); again[len(again)-1] == 0 {
		t.Fatal("mutating TopoOrder's result changed a later TopoOrder")
	}
}

func TestValidateCachedAllocFree(t *testing.T) {
	d := Cholesky(12)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = d.Validate() }); allocs != 0 {
		t.Fatalf("second Validate allocates %v times, want 0", allocs)
	}
}

func TestGroupsMatchTaskScan(t *testing.T) {
	d := CholeskySplit(9, 4, 3, 960)
	want := map[Group]int{}
	for _, tk := range d.Tasks {
		want[Group{Kind: tk.Kind, NB: tk.NB}]++
	}
	gs := d.Groups()
	if len(gs) != len(want) {
		t.Fatalf("%d groups, want %d", len(gs), len(want))
	}
	for i, g := range gs {
		if n := want[Group{Kind: g.Kind, NB: g.NB}]; n != g.Count {
			t.Fatalf("group %v count %d, want %d", g, g.Count, n)
		}
		if i > 0 {
			prev := gs[i-1]
			if prev.NB > g.NB || (prev.NB == g.NB && prev.Kind >= g.Kind) {
				t.Fatalf("groups not in (nb, kind) order: %v then %v", prev, g)
			}
		}
	}
	uniform := Cholesky(5)
	var kinds []Kind
	for _, g := range uniform.Groups() {
		kinds = append(kinds, g.Kind)
	}
	if !reflect.DeepEqual(kinds, uniform.Kinds()) {
		t.Fatalf("uniform groups %v, want one per kind %v", kinds, uniform.Kinds())
	}
}
