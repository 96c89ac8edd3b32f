package graph

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_structure.txt from current behaviour")

const goldenPath = "testdata/golden_structure.txt"

// goldenSizes spans the degenerate sizes (an empty and a one-task grid),
// the small shapes where every builder's boundary loops run, and sizes with
// long per-tile reader lists.
var goldenSizes = []int{0, 1, 2, 3, 5, 8, 13, 24}

// goldenBuilders lists every DAG builder the golden file pins, each as a
// function of the tile count.
var goldenBuilders = []struct {
	name  string
	build func(p int) *DAG
}{
	{"cholesky", Cholesky},
	{"cholesky-left", CholeskyLeftLooking},
	{"banded:1", func(p int) *DAG { return BandedCholesky(p, 1) }},
	{"banded:p/3", func(p int) *DAG { return BandedCholesky(p, p/3) }},
	{"lu", LU},
	{"qr", QR},
	{"split:p/2/2", func(p int) *DAG { return CholeskySplit(max(p, 1), max(p, 1)/2, 2, 960) }},
	{"split:p/3/3", func(p int) *DAG { return CholeskySplit(max(p, 1), max(p, 1)/3, 3, 960) }},
	{"split:0/1", func(p int) *DAG { return CholeskySplit(max(p, 1), 0, 1, 960) }},
	{"forward-solve", ForwardSolve},
	{"backward-solve", BackwardSolve},
	{"merge", func(p int) *DAG { return Merge(Cholesky(p), LU(p), BandedCholesky(p, 1), ForwardSolve(p)) }},
}

// structureDigest hashes every field of d a consumer can read: the header,
// each task's ID, kind, loop indices, tile size, footprint, Pred and Succ in
// order, the TileNB table (in coordinate order) and the topological order
// or Validate error.
func structureDigest(d *DAG) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s P=%d n=%d\n", d.Algorithm, d.P, len(d.Tasks))
	for _, t := range d.Tasks {
		fmt.Fprintf(h, "%d %d %d %d %d nb=%d fp=%v pred=%v succ=%v\n",
			t.ID, t.Kind, t.I, t.J, t.K, t.NB, t.Footprint, t.Pred, t.Succ)
	}
	keys := make([][2]int, 0, len(d.TileNB))
	for k := range d.TileNB {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for _, k := range keys {
		fmt.Fprintf(h, "tile %v nb=%d\n", k, d.TileNB[k])
	}
	order, err := d.TopoOrder()
	fmt.Fprintf(h, "order=%v err=%v\n", order, err)
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestGoldenStructure pins every builder's output across commits: task IDs,
// fields, footprints, edge lists in order and the topological order must
// reproduce the committed digests exactly. Regenerate only after a
// deliberate change to a builder's task structure, with -update.
func TestGoldenStructure(t *testing.T) {
	var buf bytes.Buffer
	for _, b := range goldenBuilders {
		for _, p := range goldenSizes {
			d := b.build(p)
			fmt.Fprintf(&buf, "%s P=%d tasks=%d digest=%s\n", b.name, p, len(d.Tasks), structureDigest(d))
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	gotLines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	wantLines := bytes.SplitAfter(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s has %d lines, the builders render %d", goldenPath, len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("DAG structure changed:\n  got  %s  want %s", gotLines[i], wantLines[i])
		}
	}
}

// TestBuildersEmptyAtNonPositiveP: a tile count of zero or below yields an
// empty, valid DAG from every builder that accepts it.
func TestBuildersEmptyAtNonPositiveP(t *testing.T) {
	for _, p := range []int{0, -1, -7} {
		for name, d := range map[string]*DAG{
			"cholesky":       Cholesky(p),
			"cholesky-left":  CholeskyLeftLooking(p),
			"banded":         BandedCholesky(p, 2),
			"lu":             LU(p),
			"qr":             QR(p),
			"forward-solve":  ForwardSolve(p),
			"backward-solve": BackwardSolve(p),
			"merge":          Merge(Cholesky(p), LU(p)),
		} {
			if len(d.Tasks) != 0 {
				t.Fatalf("%s P=%d: %d tasks, want 0", name, p, len(d.Tasks))
			}
			if err := d.Validate(); err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
		}
	}
}
