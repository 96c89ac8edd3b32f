package cpsolve

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/platform"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.txt from current behaviour")

const goldenPath = "testdata/golden_digests.txt"

// goldenGrid is the case grid pinned by golden_digests.txt: every platform
// shape, DAG family (uniform right- and left-looking, mixed tile sizes,
// random layered), Beam 1–4, both comm models, and a budget-bound and a
// generous budget. Each line is rendered from the Workers: 1 search.
func goldenGrid() []goldenCase {
	platforms := []struct {
		name string
		p    *platform.Platform
	}{
		{"mirage", platform.Mirage()},
		{"mirage-nocomm", platform.WithoutCommunication(platform.Mirage())},
		{"homogeneous:4", platform.Homogeneous(4)},
		{"related:20", platform.Related(platform.Mirage(), 20)},
	}
	var out []goldenCase
	for _, pl := range platforms {
		// Mixed tile sizes need the scaled cost model to price the fine
		// kernels and the SPLIT/MERGE conversions.
		scaled := pl.p.Clone()
		scaled.Model = platform.ModelScaled
		dags := []struct {
			name string
			d    *graph.DAG
			p    *platform.Platform
		}{
			{"cholesky:5", graph.Cholesky(5), pl.p},
			{"leftlooking:5", graph.CholeskyLeftLooking(5), pl.p},
			{"split:5/3/2", graph.CholeskySplit(5, 3, 2, scaled.DefaultNB()), scaled},
			{"random:6x5/s2", graph.RandomLayered(6, 5, 0.5, 2), pl.p},
			{"random:5x6/s1", graph.RandomLayered(5, 6, 0.5, 1), pl.p},
		}
		for _, dg := range dags {
			for beam := 1; beam <= 4; beam++ {
				for _, hop := range []float64{0, 5e-4} {
					for _, budget := range []int{500, 5000} {
						out = append(out, goldenCase{
							name: fmt.Sprintf("%s %s beam=%d hop=%g budget=%d", pl.name, dg.name, beam, hop, budget),
							d:    dg.d, p: dg.p,
							opt: Options{NodeBudget: budget, Beam: beam, CommHopSec: hop},
						})
					}
				}
			}
		}
	}
	return out
}

type goldenCase struct {
	name string
	d    *graph.DAG
	p    *platform.Platform
	opt  Options
}

// TestGoldenDigests pins the search across commits:
// TestParallelBitIdenticalAcrossWorkers only compares worker counts within
// one build, so a change to the explored tree or the node order would pass
// it unseen. Every case must reproduce its committed resultDigest, node
// count and exhaustion flag for Workers 1 and 3. Regenerate consciously with
// -update after a deliberate change to the search semantics.
func TestGoldenDigests(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range goldenGrid() {
		var line string
		for _, workers := range []int{1, 3} {
			opt := c.opt
			opt.Workers = workers
			r, err := Solve(c.d, c.p, opt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			got := fmt.Sprintf("%s digest=%016x nodes=%d exhausted=%v\n", c.name, resultDigest(r), r.Nodes, r.Exhausted)
			if line == "" {
				line = got
			} else if got != line {
				t.Errorf("workers=%d diverged from workers=1:\n  %s  %s", workers, got, line)
			}
		}
		buf.WriteString(line)
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
		t.Fatalf("%s has %d lines, grid renders %d", goldenPath, len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("search result changed:\n  got  %s  want %s", gotLines[i], wantLines[i])
		}
	}
}
