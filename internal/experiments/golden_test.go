package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/")

// checkGolden compares got against testdata/<name>, rewriting the file when
// -update-golden is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update-golden): %v", path, err)
	}
	if string(want) != got {
		t.Fatalf("%s drifted from its golden file (run with -update-golden if intended)\n--- got ---\n%.500s", name, got)
	}
}

func TestGoldenFig1DOT(t *testing.T) {
	checkGolden(t, "fig1.dot", Fig1(Quick()))
}

func TestGoldenFig9(t *testing.T) {
	checkGolden(t, "fig9.txt", Fig9(32, 6))
}

// TestGoldenMultiSeedTables pins the jitter-averaged studies — Fig6's
// overhead substitute, the work-stealing ablation and Fig11's triangle-k
// search — to tables rendered by a serial per-seed simulator loop, down to
// the last digit of every mean and σ. The replay engine that runs their
// seeds must reproduce them byte for byte.
func TestGoldenMultiSeedTables(t *testing.T) {
	for _, run := range []struct {
		name string
		fn   func(Config) (*stats.Table, error)
	}{
		{"fig6", Fig6},
		{"ws", WorkStealing},
		{"fig11", Fig11},
	} {
		t.Run(run.name, func(t *testing.T) {
			tbl, err := run.fn(Quick())
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, run.name+".txt", tbl.Render())
		})
	}
}
