package platform

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
)

func TestMirageSpeedupsMatchTableI(t *testing.T) {
	p := Mirage()
	s := p.SpeedupTable(0, 1, graph.CholeskyKinds)
	want := map[graph.Kind]float64{
		graph.POTRF: 2, graph.TRSM: 11, graph.SYRK: 26, graph.GEMM: 29,
	}
	for k, w := range want {
		if math.Abs(s[k]-w) > 1e-9 {
			t.Fatalf("%v speedup = %g, want %g", k, s[k], w)
		}
	}
}

func TestMirageGemmPeakNear960(t *testing.T) {
	p := Mirage()
	peak := p.GemmPeakGFlops(kernels.GemmFlops(TileNB))
	// 3×290 + 9×10 = 960 GFLOP/s: the Fig. 2 asymptote.
	if math.Abs(peak-960) > 1 {
		t.Fatalf("GEMM peak = %g GFLOP/s, want ≈960", peak)
	}
}

func TestAccelerationFactorsMatchPaper(t *testing.T) {
	// §V-C2: "Acceleration factors for 4, 8, 12, 16, 20, 24, 28 and 32 tiles
	// matrices are 17.30, 22.30, 24.30, 25.38, 26.06, 26.52, 26.86 and 27.11".
	p := Mirage()
	want := map[int]float64{
		4: 17.30, 8: 22.30, 12: 24.30, 16: 25.38,
		20: 26.06, 24: 26.52, 28: 26.86, 32: 27.11,
	}
	for n, w := range want {
		got := p.AccelerationFactor(graph.Cholesky(n), 0, 1)
		if math.Abs(got-w) > 0.005 {
			t.Fatalf("K(%d) = %.4f, want %.2f", n, got, w)
		}
	}
}

// ascendingKindCounts tallies a DAG's tasks per kind by scanning Tasks, so
// the bit-exactness tests below do not trust the census they check.
func ascendingKindCounts(d *graph.DAG) [graph.NumKinds]int {
	var n [graph.NumKinds]int
	for _, t := range d.Tasks {
		n[t.Kind]++
	}
	return n
}

func TestAccelerationFactorSumsInAscendingKindOrder(t *testing.T) {
	// K must be the ascending-kind sum bit for bit: summing in map
	// iteration order makes the rounding, and thus the "related" platform
	// built from K, vary between runs.
	p := MirageExtended()
	for _, d := range []*graph.DAG{graph.Cholesky(4), graph.Cholesky(17), graph.Cholesky(32), graph.LU(9), graph.QR(9)} {
		counts := ascendingKindCounts(d)
		num, den := 0.0, 0.0
		for k := graph.Kind(0); k < graph.NumKinds; k++ {
			if counts[k] == 0 {
				continue
			}
			num += float64(counts[k]) * p.Time(0, k) / p.Time(1, k)
			den += float64(counts[k])
		}
		want := num / den
		for rep := 0; rep < 20; rep++ {
			if got := p.AccelerationFactor(d, 0, 1); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s P=%d: K = %v (bits %x), want ascending-kind sum %v (bits %x)",
					d.Algorithm, d.P, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestMirageValidates(t *testing.T) {
	if err := Mirage().Validate(graph.CholeskyKinds); err != nil {
		t.Fatal(err)
	}
	if err := Homogeneous(9).Validate(graph.CholeskyKinds); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBroken(t *testing.T) {
	p := &Platform{Classes: []Class{{Name: "x", Count: 0}}}
	if err := p.Validate(nil); err == nil {
		t.Fatal("expected error for zero workers")
	}
	p = &Platform{Classes: []Class{{Name: "x", Count: -1}}}
	if err := p.Validate(nil); err == nil {
		t.Fatal("expected error for negative count")
	}
	p = &Platform{Classes: []Class{{Name: "x", Count: 1, Times: map[graph.Kind]float64{graph.GEMM: -1}}}}
	if err := p.Validate(nil); err == nil {
		t.Fatal("expected error for negative time")
	}
	p = &Platform{Classes: []Class{{Name: "x", Count: 1, Times: map[graph.Kind]float64{graph.GEMM: 1}}}}
	if err := p.Validate([]graph.Kind{graph.POTRF}); err == nil {
		t.Fatal("expected error for unrunnable kernel")
	}
}

func TestTimeUnsupportedIsInf(t *testing.T) {
	p := Mirage()
	if !math.IsInf(p.Time(1, graph.GETRF), 1) {
		t.Fatal("unsupported kernel should have +Inf time")
	}
}

func TestFastestAndAverageTime(t *testing.T) {
	p := Mirage()
	for _, k := range graph.CholeskyKinds {
		cpu, gpu := p.Time(0, k), p.Time(1, k)
		if p.FastestTime(k) != math.Min(cpu, gpu) {
			t.Fatalf("%v: FastestTime wrong", k)
		}
		want := (9*cpu + 3*gpu) / 12
		if math.Abs(p.AverageTime(k)-want) > 1e-12 {
			t.Fatalf("%v: AverageTime = %g, want %g", k, p.AverageTime(k), want)
		}
	}
	// All Cholesky kernels are fastest on GPU in the Mirage model.
	for _, k := range graph.CholeskyKinds {
		if p.FastestTime(k) != p.Time(1, k) {
			t.Fatalf("%v should be fastest on GPU", k)
		}
	}
}

func TestWorkerClassMapping(t *testing.T) {
	p := Mirage()
	if p.Workers() != 12 {
		t.Fatalf("Workers = %d, want 12", p.Workers())
	}
	for w := 0; w < 9; w++ {
		if p.WorkerClass(w) != 0 {
			t.Fatalf("worker %d should be CPU", w)
		}
	}
	for w := 9; w < 12; w++ {
		if p.WorkerClass(w) != 1 {
			t.Fatalf("worker %d should be GPU", w)
		}
	}
	cw := p.ClassWorkers(0)
	if len(cw) != 9 || cw[0] != 0 || cw[8] != 8 {
		t.Fatalf("ClassWorkers(0) = %v", cw)
	}
	gw := p.ClassWorkers(1)
	if len(gw) != 3 || gw[0] != 9 || gw[2] != 11 {
		t.Fatalf("ClassWorkers(1) = %v", gw)
	}
}

func TestWorkerClassOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mirage().WorkerClass(12)
}

func TestMemoryNodes(t *testing.T) {
	p := Mirage()
	if p.MemoryNodes() != 4 {
		t.Fatalf("MemoryNodes = %d, want 4 (host + 3 GPUs)", p.MemoryNodes())
	}
	for w := 0; w < 9; w++ {
		if p.MemoryNode(w) != 0 {
			t.Fatalf("CPU worker %d not on host node", w)
		}
	}
	for g := 0; g < 3; g++ {
		if p.MemoryNode(9+g) != 1+g {
			t.Fatalf("GPU %d on node %d, want %d", g, p.MemoryNode(9+g), 1+g)
		}
	}
}

func TestBusTransferTime(t *testing.T) {
	b := Bus{Enabled: true, BandwidthBps: 1e9, LatencySec: 1e-5}
	if got := b.TransferTime(1e9); math.Abs(got-(1+1e-5)) > 1e-12 {
		t.Fatalf("TransferTime = %g", got)
	}
	b.Enabled = false
	if b.TransferTime(1e9) != 0 {
		t.Fatal("disabled bus should be free")
	}
}

func TestRelatedPlatformUniformSpeedup(t *testing.T) {
	base := Mirage()
	rel := Related(base, 20)
	s := rel.SpeedupTable(0, 1, graph.CholeskyKinds)
	for k, v := range s {
		if math.Abs(v-20) > 1e-9 {
			t.Fatalf("%v related speedup = %g, want 20", k, v)
		}
	}
	// CPU times unchanged.
	for _, k := range graph.CholeskyKinds {
		if rel.Time(0, k) != base.Time(0, k) {
			t.Fatal("Related modified CPU times")
		}
	}
}

func TestRelatedPanicsOnHomogeneous(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Related(Homogeneous(4), 10)
}

func TestWithoutCommunication(t *testing.T) {
	p := WithoutCommunication(Mirage())
	if p.Bus.Enabled {
		t.Fatal("bus still enabled")
	}
	if Mirage().Bus.Enabled == false {
		t.Fatal("WithoutCommunication mutated the base constructor")
	}
}

func TestScaleClassTimes(t *testing.T) {
	base := Mirage()
	p := ScaleClassTimes(base, 1, 2)
	for _, k := range graph.CholeskyKinds {
		if math.Abs(p.Time(1, k)-2*base.Time(1, k)) > 1e-15 {
			t.Fatalf("%v not scaled", k)
		}
		if p.Time(0, k) != base.Time(0, k) {
			t.Fatal("CPU times changed")
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := Mirage()
	q := p.Clone()
	q.Classes[0].Times[graph.GEMM] = 123
	if p.Classes[0].Times[graph.GEMM] == 123 {
		t.Fatal("Clone shares timing maps")
	}
}

func TestGFlops(t *testing.T) {
	if GFlops(2e9, 2) != 1 {
		t.Fatal("GFlops conversion wrong")
	}
	if !math.IsInf(GFlops(1, 0), 1) {
		t.Fatal("GFlops(x, 0) should be +Inf")
	}
}

func TestCalibrateProducesPositiveTimes(t *testing.T) {
	times := Calibrate(32, 1) // tiny tile: fast test
	for _, k := range graph.CholeskyKinds {
		if times[k] <= 0 {
			t.Fatalf("%v calibrated time %g", k, times[k])
		}
	}
	// GEMM does 2nb³ work vs POTRF's nb³/3: GEMM should not be faster than
	// POTRF by more than noise allows on equal tiles. (Weak sanity check.)
	if times[graph.GEMM] <= 0 || times[graph.POTRF] <= 0 {
		t.Fatal("non-positive calibration")
	}
}

func TestCalibratedHost(t *testing.T) {
	p := CalibratedHost(4, 16, 1)
	if err := p.Validate(graph.CholeskyKinds); err != nil {
		t.Fatal(err)
	}
	if p.Workers() != 4 {
		t.Fatalf("Workers = %d", p.Workers())
	}
}

func TestCanRun(t *testing.T) {
	c := Class{Times: map[graph.Kind]float64{graph.GEMM: 1, graph.TRSM: math.Inf(1)}}
	if !c.CanRun(graph.GEMM) || c.CanRun(graph.POTRF) || c.CanRun(graph.TRSM) {
		t.Fatal("CanRun wrong")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := Mirage()
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	q := &Platform{}
	if err := q.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || q.Workers() != p.Workers() {
		t.Fatal("metadata lost")
	}
	for r := range p.Classes {
		for _, k := range graph.CholeskyKinds {
			if q.Time(r, k) != p.Time(r, k) {
				t.Fatalf("class %d kernel %v time lost", r, k)
			}
		}
	}
	if q.Bus != p.Bus || q.TileBytes != p.TileBytes || q.Overhead != p.Overhead {
		t.Fatal("bus/overhead lost")
	}
}

func TestJSONFileRoundTrip(t *testing.T) {
	p := MirageExtended()
	path := t.TempDir() + "/plat.json"
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	q, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(graph.Cholesky(4).Kinds()); err != nil {
		t.Fatal(err)
	}
	if q.Time(1, graph.TSMQR) != p.Time(1, graph.TSMQR) {
		t.Fatal("extended kernel time lost")
	}
}

func TestJSONRejectsUnknownKernel(t *testing.T) {
	q := &Platform{}
	err := q.UnmarshalJSON([]byte(`{"classes":[{"name":"x","count":1,"times":{"FOO":1}}]}`))
	if err == nil {
		t.Fatal("expected unknown-kernel error")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/x.json"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSiroccoThreeClasses(t *testing.T) {
	p := Sirocco()
	if err := p.Validate(graph.CholeskyKinds); err != nil {
		t.Fatal(err)
	}
	if len(p.Classes) != 3 || p.Workers() != 28 {
		t.Fatalf("classes=%d workers=%d", len(p.Classes), p.Workers())
	}
	// Memory nodes: host + 2 fast + 2 slow.
	if p.MemoryNodes() != 5 {
		t.Fatalf("MemoryNodes = %d", p.MemoryNodes())
	}
	if p.MemoryNode(24) != 1 || p.MemoryNode(27) != 4 {
		t.Fatal("accelerator node mapping wrong")
	}
	if p.NodeClass(2) != 1 || p.NodeClass(3) != 2 {
		t.Fatal("NodeClass wrong for three classes")
	}
	// GEMM fastest on the fast GPUs.
	if p.FastestTime(graph.GEMM) != p.Time(1, graph.GEMM) {
		t.Fatal("GEMM should be fastest on gpu-fast")
	}
}
