package graph_test

import (
	"fmt"

	"repro/internal/graph"
)

// Build the Cholesky task graph of Figure 1 (5×5 tiles) and inspect it.
func ExampleCholesky() {
	d := graph.Cholesky(5)
	c := d.CountByKind()
	fmt.Printf("tasks=%d POTRF=%d TRSM=%d SYRK=%d GEMM=%d\n",
		len(d.Tasks), c[graph.POTRF], c[graph.TRSM], c[graph.SYRK], c[graph.GEMM])
	order, err := d.TopoOrder()
	if err != nil {
		panic(err)
	}
	fmt.Println("root:", d.Tasks[order[0]].Name())
	// Output:
	// tasks=35 POTRF=5 TRSM=10 SYRK=10 GEMM=10
	// root: POTRF_0
}

// Compute the critical path under unit task weights: the paper's diagonal
// chain POTRF,(TRSM,SYRK)* has 3p−2 tasks.
func ExampleDAG_CriticalPath() {
	d := graph.Cholesky(8)
	length, path, err := d.CriticalPath(func(*graph.Task) float64 { return 1 })
	if err != nil {
		panic(err)
	}
	fmt.Printf("critical path: %.0f tasks, from %s to %s\n",
		length, d.Tasks[path[0]].Name(), d.Tasks[path[len(path)-1]].Name())
	// Output:
	// critical path: 22 tasks, from POTRF_0 to POTRF_7
}

// The LU and QR builders share the same dataflow machinery.
func ExampleLU() {
	d := graph.LU(4)
	c := d.CountByKind()
	fmt.Printf("GETRF=%d TRSM=%d GEMM=%d\n", c[graph.GETRF], c[graph.TRSM], c[graph.GEMM])
	// Output:
	// GETRF=4 TRSM=12 GEMM=14
}
