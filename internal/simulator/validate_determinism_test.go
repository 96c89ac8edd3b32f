package simulator

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/platform"
)

// TestValidateDeterministicErrorSelection builds a schedule with overlapping
// intervals on several workers at once and checks Validate reports the same
// worker every time — the lowest-numbered offender. The per-worker interval
// groups used to live in a map, so with multiple offenders the reported
// worker followed map iteration order and differed run to run.
func TestValidateDeterministicErrorSelection(t *testing.T) {
	p := platform.Mirage()
	// Six independent tasks: the pairs on workers 7, 2 and 5 all overlap.
	tasks := make([]*graph.Task, 6)
	for i := range tasks {
		tasks[i] = &graph.Task{ID: i, Kind: graph.GEMM}
	}
	d := &graph.DAG{Tasks: tasks}
	r := &Result{
		Start:  []float64{0, 1, 0, 1, 0, 1},
		End:    []float64{2, 3, 2, 3, 2, 3},
		Worker: []int{7, 7, 2, 2, 5, 5},
	}
	var want string
	for i := 0; i < 100; i++ {
		err := Validate(d, p, r)
		if err == nil {
			t.Fatal("overlapping schedule passed Validate")
		}
		if i == 0 {
			want = err.Error()
			if !strings.Contains(want, "worker 2") {
				t.Fatalf("expected the lowest-numbered offender (worker 2) reported first, got %q", want)
			}
			continue
		}
		if got := err.Error(); got != want {
			t.Fatalf("iteration %d: error %q differs from first iteration's %q", i, got, want)
		}
	}
}

// TestValidateErrorTable crafts one Result per Validate error path and pins
// each exact message. The DAG is a two-task chain (POTRF_0 → TRSM_1_0) on
// Mirage (workers 0–8 CPU, 9–11 GPU), extended with an independent GEMM the
// GPUs are made unable to run.
func TestValidateErrorTable(t *testing.T) {
	p := platform.Mirage().Clone()
	delete(p.Classes[1].Times, graph.GEMM)
	potrf := &graph.Task{ID: 0, Kind: graph.POTRF, I: -1, J: -1, K: 0, Succ: []int{1}}
	trsm := &graph.Task{ID: 1, Kind: graph.TRSM, I: 1, J: -1, K: 0, Pred: []int{0}}
	gemm := &graph.Task{ID: 2, Kind: graph.GEMM, I: 2, J: 1, K: 0}
	d := &graph.DAG{Tasks: []*graph.Task{potrf, trsm, gemm}}
	valid := func() *Result {
		return &Result{
			Start:  []float64{0, 2, 0},
			End:    []float64{2, 3, 4},
			Worker: []int{0, 0, 1},
		}
	}
	if err := Validate(d, p, valid()); err != nil {
		t.Fatalf("base schedule rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(r *Result)
		want   string
	}{
		{"wrong length", func(r *Result) { r.End = r.End[:2] },
			"simulator: result arrays have wrong length"},
		{"invalid worker", func(r *Result) { r.Worker[1] = 12 },
			"simulator: task TRSM_1_0 on invalid worker 12"},
		{"negative worker", func(r *Result) { r.Worker[0] = -1 },
			"simulator: task POTRF_0 on invalid worker -1"},
		{"incapable worker", func(r *Result) { r.Worker[2] = 10 },
			"simulator: task GEMM_2_1_0 ran on incapable worker 10"},
		{"end before start", func(r *Result) { r.End[2] = -1 },
			"simulator: task GEMM_2_1_0 ends before it starts"},
		{"predecessor violation", func(r *Result) { r.Start[1], r.Worker[1] = 1.5, 9 },
			"simulator: task TRSM_1_0 started 1.500000000 before predecessor POTRF_0 finished 2.000000000"},
		{"overlap", func(r *Result) { r.Worker[2] = 0 },
			"simulator: overlapping intervals on worker 0"},
	}
	for _, tc := range cases {
		r := valid()
		tc.mutate(r)
		err := Validate(d, p, r)
		if err == nil {
			t.Errorf("%s: Validate accepted the schedule", tc.name)
			continue
		}
		if got := err.Error(); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}
