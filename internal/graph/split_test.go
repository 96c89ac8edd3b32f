package graph

import "testing"

// TestCholeskySplitDegenerate pins the fromK = p (and factor = 1) cases to
// the uniform right-looking builder: same task multiset and dependencies,
// with Task.NB pinned to the coarse size instead of 0.
func TestCholeskySplitDegenerate(t *testing.T) {
	for _, tc := range []struct{ fromK, factor int }{{4, 2}, {0, 1}, {2, 1}} {
		d := CholeskySplit(4, tc.fromK, tc.factor, 960)
		u := Cholesky(4)
		if len(d.Tasks) != len(u.Tasks) {
			t.Fatalf("fromK=%d factor=%d: %d tasks, uniform has %d",
				tc.fromK, tc.factor, len(d.Tasks), len(u.Tasks))
		}
		for i, task := range d.Tasks {
			ut := u.Tasks[i]
			if task.Kind != ut.Kind || task.I != ut.I || task.J != ut.J || task.K != ut.K {
				t.Fatalf("task %d: got %v (%d,%d,%d), uniform %v (%d,%d,%d)",
					i, task.Kind, task.I, task.J, task.K, ut.Kind, ut.I, ut.J, ut.K)
			}
			if task.NB != 960 {
				t.Fatalf("task %d: NB = %d, want 960", i, task.NB)
			}
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCholeskySplitStructure(t *testing.T) {
	const p, fromK, factor, nb = 4, 2, 2, 960
	d := CholeskySplit(p, fromK, factor, nb)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TopoOrder(); err != nil {
		t.Fatal(err)
	}
	counts := d.CountByKind()

	// Coarse panels k < fromK plus a fine m×m Cholesky, m = (p−fromK)·factor.
	m := (p - fromK) * factor
	wantPOTRF := fromK + m
	if counts[POTRF] != wantPOTRF {
		t.Fatalf("POTRF count %d, want %d", counts[POTRF], wantPOTRF)
	}
	// One SPLIT and one MERGE per trailing lower-triangular coarse tile.
	trailing := 0
	for i := fromK; i < p; i++ {
		trailing += i - fromK + 1
	}
	if counts[SPLIT] != trailing || counts[MERGE] != trailing {
		t.Fatalf("SPLIT=%d MERGE=%d, want %d each", counts[SPLIT], counts[MERGE], trailing)
	}

	var nbs []int // distinct group sizes, in Groups' ascending-nb order
	for _, g := range d.Groups() {
		if len(nbs) == 0 || nbs[len(nbs)-1] != g.NB {
			nbs = append(nbs, g.NB)
		}
	}
	if len(nbs) != 2 || nbs[0] != nb/factor || nbs[1] != nb {
		t.Fatalf("group sizes %v, want [%d %d]", nbs, nb/factor, nb)
	}

	fineNB := nb / factor
	for _, task := range d.Tasks {
		switch {
		case task.Kind.IsConversion():
			if task.NB != nb {
				t.Fatalf("%s: conversion NB = %d, want coarse %d", task.Name(), task.NB, nb)
			}
		case task.K >= 0 && task.K < fromK && !task.Kind.IsConversion():
			if task.NB != nb {
				t.Fatalf("%s: coarse task NB = %d, want %d", task.Name(), task.NB, nb)
			}
		}
		if task.NB != nb && task.NB != fineNB {
			t.Fatalf("%s: NB = %d, want %d or %d", task.Name(), task.NB, nb, fineNB)
		}
	}

	// Fine tiles are registered in TileNB at offset coordinates ≥ p.
	for gi := p; gi < p+m; gi++ {
		for gj := p; gj <= gi; gj++ {
			if got := d.TileSize(gi, gj); got != fineNB {
				t.Fatalf("TileSize(%d,%d) = %d, want %d", gi, gj, got, fineNB)
			}
		}
	}
	if d.TileSize(0, 0) != 0 {
		t.Fatalf("coarse tile reports size %d, want 0 (reference)", d.TileSize(0, 0))
	}

	// Every SPLIT must precede every fine kernel that reads its subtiles, and
	// every MERGE must come after; spot-check via topological levels is
	// subsumed by Validate + the sequential-consistency builder, so here we
	// only require that conversions are never sources or sinks of the DAG in
	// the wrong direction: a SPLIT has successors, a MERGE has predecessors.
	for _, task := range d.Tasks {
		if task.Kind == SPLIT && len(task.Succ) == 0 {
			t.Fatalf("%s has no successors", task.Name())
		}
		if task.Kind == MERGE && len(task.Pred) == 0 {
			t.Fatalf("%s has no predecessors", task.Name())
		}
	}
}

func TestCholeskySplitPanics(t *testing.T) {
	for _, tc := range []struct{ p, fromK, factor, nb int }{
		{0, 0, 2, 960},  // no tiles
		{4, 5, 2, 960},  // fromK beyond p
		{4, -1, 2, 960}, // negative fromK
		{4, 2, 0, 960},  // factor < 1
		{4, 2, 7, 960},  // factor does not divide nb
		{4, 2, 2, 0},    // nb not positive
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CholeskySplit(%d,%d,%d,%d) did not panic", tc.p, tc.fromK, tc.factor, tc.nb)
				}
			}()
			CholeskySplit(tc.p, tc.fromK, tc.factor, tc.nb)
		}()
	}
}
