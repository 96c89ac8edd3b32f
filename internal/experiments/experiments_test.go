package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/simulator"
)

func quickCfg() Config { return Quick() }

func TestTableIValues(t *testing.T) {
	tbl := TableI(quickCfg())
	want := []float64{2, 11, 26, 29}
	for i, w := range want {
		if math.Abs(tbl.Series[0].Values[i]-w) > 1e-9 {
			t.Fatalf("kernel %d speedup %g, want %g", i, tbl.Series[0].Values[i], w)
		}
	}
}

func TestTableKMatchesPaper(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{4, 8, 12, 16, 20, 24, 28, 32}
	tbl := TableK(cfg)
	want := []float64{17.30, 22.30, 24.30, 25.38, 26.06, 26.52, 26.86, 27.11}
	for i, w := range want {
		if math.Abs(tbl.Series[0].Values[i]-w) > 0.005 {
			t.Fatalf("K(%d) = %.4f, want %.2f", cfg.Sizes[i], tbl.Series[0].Values[i], w)
		}
	}
}

func TestFig2ShapesHold(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{2, 4, 8, 16, 32}
	tbl, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
	}
	for i := range cfg.Sizes {
		mixed, area, peak := series["mixed bound"][i], series["area bound"][i], series["gemm peak"][i]
		if mixed > area+1e-6 || area > peak+1e-6 {
			t.Fatalf("i=%d: bound ordering violated: mixed %g area %g peak %g", i, mixed, area, peak)
		}
	}
	// GEMM peak flat at ≈960.
	for _, v := range series["gemm peak"] {
		if math.Abs(v-960) > 1 {
			t.Fatalf("gemm peak %g", v)
		}
	}
	// Mixed bound approaches the peak at n=32 (≥80 %) and is far below at n=2.
	last := len(cfg.Sizes) - 1
	if series["mixed bound"][last] < 0.8*series["gemm peak"][last] {
		t.Fatal("mixed bound too low at n=32")
	}
	if series["mixed bound"][0] > 0.5*series["gemm peak"][0] {
		t.Fatal("mixed bound should be far below peak at n=2")
	}
}

func TestFig4SchedulersBelowBound(t *testing.T) {
	cfg := quickCfg()
	tbl, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
	}
	for i := range cfg.Sizes {
		for _, name := range []string{"random", "dmda", "dmdas"} {
			if series[name][i] > series["mixed bound"][i]+1e-6 {
				t.Fatalf("%s above mixed bound at i=%d", name, i)
			}
		}
		if series["random"][i] > series["dmda"][i]+1e-6 {
			t.Fatalf("random should not beat dmda (homogeneous, i=%d)", i)
		}
	}
}

func TestFig7GapShape(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{4, 8}
	tbl, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
	}
	for i := range cfg.Sizes {
		// The paper's central observation: schedulers never beat the bound,
		// random loses badly on heterogeneous platforms.
		best := math.Max(series["dmda"][i], series["dmdas"][i])
		if best > series["mixed bound"][i]*(1+1e-9) {
			t.Fatal("scheduler above bound")
		}
		if series["random"][i] > best {
			t.Fatal("random should lose on heterogeneous")
		}
	}
	// Gap at n=8 is significant (≥10 %). (At n=4 the chain dominates the DAG
	// and our dmdas reaches the bound exactly.)
	if series["dmdas"][1] > 0.9*series["mixed bound"][1] {
		t.Fatalf("expected a significant gap at n=8: dmdas %g vs bound %g",
			series["dmdas"][1], series["mixed bound"][1])
	}
}

func TestFig5RelatedEasier(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{8}
	rel, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unrel, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	relMap := map[string][]float64{}
	for _, s := range rel.Series {
		relMap[s.Name] = s.Values
	}
	unrelMap := map[string][]float64{}
	for _, s := range unrel.Series {
		unrelMap[s.Name] = s.Values
	}
	gapRel := relMap["dmdas"][0] / relMap["mixed bound"][0]
	gapUnrel := unrelMap["dmdas"][0] / unrelMap["mixed bound"][0]
	if gapRel < gapUnrel-0.05 {
		t.Fatalf("related case should be no harder: rel %.3f vs unrel %.3f", gapRel, gapUnrel)
	}
}

func TestFig8ScaledBoundMatchesUnrelated(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{4, 8}
	f8, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f7, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var scaled, unrel []float64
	for _, s := range f8.Series {
		if s.Name == "mixed bound" {
			scaled = s.Values
		}
	}
	for _, s := range f7.Series {
		if s.Name == "mixed bound" {
			unrel = s.Values
		}
	}
	for i := range scaled {
		if math.Abs(scaled[i]-unrel[i]) > 1e-6*unrel[i] {
			t.Fatalf("scaled related bound %g != unrelated bound %g", scaled[i], unrel[i])
		}
	}
}

func TestFig3OverheadBelowFig4(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{4, 8}
	cfg.Runs = 2
	f3, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// "a slight increase in performance, since we have removed the runtime
	// overhead": simulated dmda ≥ actual dmda (tolerating jitter noise).
	var act, sim []float64
	for _, s := range f3.Series {
		if s.Name == "dmda" {
			act = s.Values
		}
	}
	for _, s := range f4.Series {
		if s.Name == "dmda" {
			sim = s.Values
		}
	}
	for i := range act {
		if act[i] > sim[i]*1.05 {
			t.Fatalf("actual %g above simulated %g", act[i], sim[i])
		}
	}
}

func TestFig9Rendering(t *testing.T) {
	out := Fig9(8, 3)
	if !strings.Contains(out, "C") || !strings.Contains(out, "g") {
		t.Fatalf("missing glyphs:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + 8 rows + legend.
	if len(lines) != 10 {
		t.Fatalf("got %d lines", len(lines))
	}
	// Row i has i+1 tiles → last data row has 8 entries.
	if got := len(strings.Fields(lines[8])); got != 8 {
		t.Fatalf("last row has %d tiles", got)
	}
}

func TestFig10StaticKnowledgeWins(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{4, 6, 8}
	cfg.CPMaxTiles = 5
	tbl, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
	}
	for i := range cfg.Sizes {
		if series["triangle trsms on cpu"][i] < series["dmdas"][i]-1e-6 {
			t.Fatalf("i=%d: best triangle hint %g worse than plain dmdas %g",
				i, series["triangle trsms on cpu"][i], series["dmdas"][i])
		}
		if series["dmdas"][i] > series["mixed bound"][i]*(1+1e-9) {
			t.Fatal("dmdas above bound")
		}
	}
	// CP columns present for n ≤ CPMaxTiles, NaN beyond.
	if math.IsNaN(series["CP solution"][0]) {
		t.Fatal("CP missing at n=4")
	}
	if !math.IsNaN(series["CP solution"][2]) {
		t.Fatal("CP should be NaN at n=8 with CPMaxTiles=5")
	}
	// CP-in-simulation within 1 % of CP value (paper's <1 % claim).
	for i := range cfg.Sizes {
		v, s := series["CP solution"][i], series["CP in simulation"][i]
		if math.IsNaN(v) {
			continue
		}
		if math.Abs(v-s)/v > 0.01 {
			t.Fatalf("CP %g vs injected %g differ by more than 1%%", v, s)
		}
	}
}

func TestMappingOnlyDoesNotRecoverCP(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{5}
	cfg.CPMaxTiles = 5
	tbl, err := MappingOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
	}
	if series["CP full injection"][0] < series["CP mapping only"][0]-1e-6 &&
		series["CP full injection"][0] < series["dmdas"][0]-1e-6 {
		t.Fatal("full CP injection should not be the worst")
	}
}

func TestGemmSyrkHintMarginal(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{8}
	tbl, err := GemmSyrkHint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := tbl.Series[0].Values[0]
	hinted := tbl.Series[1].Values[0]
	// The paper: improvement "not significant". Allow ±15 %.
	if hinted < plain*0.85 || hinted > plain*1.15 {
		t.Fatalf("hint effect too large: plain %g hinted %g", plain, hinted)
	}
}

func TestFig12Output(t *testing.T) {
	out, err := Fig12(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dmda") || !strings.Contains(out, "dmdas") {
		t.Fatal("missing scheduler sections")
	}
	if !strings.Contains(out, "GPU idle fraction") {
		t.Fatal("missing idle stats")
	}
	if strings.Count(out, "gpu0") != 2 {
		t.Fatal("expected gpu0 lane in both traces")
	}
}

func TestFig12SVG(t *testing.T) {
	svgs, err := Fig12SVG(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(svgs) != 2 {
		t.Fatalf("got %d SVGs", len(svgs))
	}
	for name, svg := range svgs {
		if !strings.Contains(svg, "<svg") {
			t.Fatalf("%s: not SVG", name)
		}
	}
}

func TestTransferAblation(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{8}
	tbl, err := TransferAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aware := tbl.Series[0].Values[0]
	blind := tbl.Series[1].Values[0]
	if aware <= 0 || blind <= 0 {
		t.Fatal("non-positive results")
	}
}

func TestBestTriangleKInRange(t *testing.T) {
	cfg := quickCfg()
	n := 10
	k, g, err := BestTriangleK(cfg, n, unrelatedSimPlatform(n), false)
	if err != nil {
		t.Fatal(err)
	}
	if k < 0 || k >= n {
		t.Fatalf("best k = %d out of range", k)
	}
	if g <= 0 {
		t.Fatal("non-positive GFLOP/s")
	}
}

func TestBestTriangleKPaperRange(t *testing.T) {
	// The paper: "best performance when all the TRSM kernels which are more
	// than 6-8 tiles away from the diagonal are forced on CPUs", and the
	// hint strictly beats dmdas on medium matrices.
	cfg := quickCfg()
	n := 16
	p := unrelatedSimPlatform(n)
	k, g, err := BestTriangleK(cfg, n, p, false)
	if err != nil {
		t.Fatal(err)
	}
	if k < 5 || k > 9 {
		t.Fatalf("best k = %d, paper reports 6-8", k)
	}
	d := graph.Cholesky(n)
	plain, err := simGFlops(context.Background(), d, p, sched.NewDMDAS(), cfg.NB, simulator.Options{Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if g <= plain {
		t.Fatalf("triangle hint %g should strictly beat dmdas %g at n=16", g, plain)
	}
}

func TestRegistryRunsQuickExperiments(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{2, 4}
	cfg.Runs = 2
	cfg.CPMaxTiles = 4
	cfg.CPBudget = 2000
	cfg.RealSizes = []int{2}
	cfg.RealNB = 16
	for _, id := range []string{"table1", "tablek", "fig2", "fig9", "fig12"} {
		r, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := r.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if out == "" {
			t.Fatalf("%s: empty output", id)
		}
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

func TestFig3RealSmall(t *testing.T) {
	cfg := quickCfg()
	cfg.RealSizes = []int{2, 3}
	cfg.RealNB = 16
	cfg.Runs = 2
	tbl, err := Fig3Real(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 3 {
		t.Fatalf("got %d series", len(tbl.Series))
	}
	for _, s := range tbl.Series {
		for i, v := range s.Values {
			if v <= 0 {
				t.Fatalf("%s[%d] = %g", s.Name, i, v)
			}
		}
	}
}

// TestFig3RealTitleResolvesDefaultWorkers: the default RealWorkers = 0 runs
// GOMAXPROCS workers, and the title says how many.
func TestFig3RealTitleResolvesDefaultWorkers(t *testing.T) {
	cfg := quickCfg()
	cfg.RealWorkers = 0
	cfg.RealSizes = []int{2}
	cfg.RealNB = 8
	cfg.Runs = 1
	tbl, err := Fig3Real(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("— %d workers, nb=8", runtime.GOMAXPROCS(0))
	if !strings.Contains(tbl.Title, want) {
		t.Fatalf("title %q, want it to contain %q", tbl.Title, want)
	}
}

func TestCalibrationReport(t *testing.T) {
	tbl := CalibrationReport(16, 1)
	for _, v := range tbl.Series[0].Values {
		if v <= 0 {
			t.Fatal("non-positive calibrated GFLOP/s")
		}
	}
}

func TestGemmPeakValue(t *testing.T) {
	if g := GemmPeakGFlops(Default()); math.Abs(g-960) > 1 {
		t.Fatalf("GEMM peak %g", g)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := Default()
	if len(cfg.Sizes) != 16 || cfg.Sizes[0] != 2 || cfg.Sizes[15] != 32 {
		t.Fatalf("Sizes = %v", cfg.Sizes)
	}
	if cfg.Runs != 10 || cfg.NB != 960 {
		t.Fatal("defaults drifted from the paper's setup")
	}
}

func TestOtherFactorizationsShapes(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{4, 8}
	tbl, err := OtherFactorizations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
	}
	for _, alg := range []string{"lu", "qr"} {
		for i := range cfg.Sizes {
			perf, bound := series[alg+" dmdas"][i], series[alg+" mixed bound"][i]
			if perf <= 0 || bound <= 0 {
				t.Fatalf("%s: non-positive values", alg)
			}
			if perf > bound*(1+1e-9) {
				t.Fatalf("%s: dmdas %g above mixed bound %g", alg, perf, bound)
			}
		}
	}
}

func TestCommAwareCPNoWorse(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{4, 5}
	cfg.CPMaxTiles = 5
	tbl, err := CommAwareCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
	}
	for i := range tbl.Xs {
		if series["CP comm-aware"][i] <= 0 || series["CP oblivious"][i] <= 0 {
			t.Fatal("non-positive CP results")
		}
	}
}

func TestAlgoFlops(t *testing.T) {
	if algoFlops("lu", 2, 3) != 2*216.0/3 {
		t.Fatal("lu flops")
	}
	if algoFlops("qr", 2, 3) != 4*216.0/3 {
		t.Fatal("qr flops")
	}
	if algoFlops("cholesky", 1, 4) <= 0 {
		t.Fatal("cholesky flops")
	}
}

func TestFig1DOT(t *testing.T) {
	out := Fig1(quickCfg())
	if !strings.Contains(out, "digraph cholesky") || !strings.Contains(out, "GEMM_4_2_1") {
		t.Fatalf("Fig1 DOT incomplete:\n%.200s", out)
	}
	if strings.Count(out, "POTRF_") < 5 {
		t.Fatal("expected 5 POTRF nodes")
	}
}

func TestWorkStealingExperiment(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{8}
	cfg.Runs = 3
	tbl, err := WorkStealing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
	}
	// Stealing recovers part of random's imbalance but not dmda's affinity.
	if series["random+ws"][0] < series["random"][0] {
		t.Fatal("stealing made random worse")
	}
	if series["random+ws"][0] > series["dmda"][0] {
		t.Fatal("stealing should not beat data-aware dmda")
	}
}

func TestMemorySweepShape(t *testing.T) {
	cfg := quickCfg()
	tbl, err := MemorySweep(cfg, 12, []int{6, 24, 0})
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
	}
	if series["evictions"][0] <= series["evictions"][1] {
		t.Fatal("smaller memory should evict more")
	}
	if series["evictions"][2] != 0 {
		t.Fatal("unlimited memory must not evict")
	}
}

func TestTileSizeSweepInteriorOptimum(t *testing.T) {
	cfg := quickCfg()
	tbl, err := TileSizeSweep(cfg, 7680, []int{120, 480, 960, 3840, 7680})
	if err != nil {
		t.Fatal(err)
	}
	vals := tbl.Series[0].Values
	best, bestIdx := 0.0, -1
	for i, v := range vals {
		if v > best {
			best, bestIdx = v, i
		}
	}
	if bestIdx == 0 || bestIdx == len(vals)-1 {
		t.Fatalf("optimum at extreme index %d", bestIdx)
	}
}

func TestBandedShape(t *testing.T) {
	cfg := quickCfg()
	tbl, err := Banded(cfg, 16, []int{1, 4, 15})
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
	}
	for i := range tbl.Xs {
		if series["dmdas"][i] > series["mixed bound"][i]*(1+1e-9) {
			t.Fatal("banded dmdas above bound")
		}
	}
	// bw=1 is the pure chain: dmdas achieves the bound.
	if series["dmdas"][0] < series["mixed bound"][0]*0.999 {
		t.Fatalf("bw=1 should hit the chain bound: %g vs %g",
			series["dmdas"][0], series["mixed bound"][0])
	}
	// Wider band ⇒ more absolute performance.
	if !(series["dmdas"][2] > series["dmdas"][1] && series["dmdas"][1] > series["dmdas"][0]) {
		t.Fatal("performance should grow with bandwidth")
	}
}

func TestDistributedExperiment(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{8}
	tbl, err := Distributed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
	}
	for name, v := range series {
		if v[0] <= 0 {
			t.Fatalf("%s non-positive", name)
		}
	}
	bound := series["mixed bound (flat)"][0]
	for _, name := range []string{"owner 1D row-cyclic", "owner 2D block-cyclic", "dynamic"} {
		if series[name][0] > bound*(1+1e-9) {
			t.Fatalf("%s above the flat bound", name)
		}
	}
}

func TestDagFlopsMatchesClosedFormOnDense(t *testing.T) {
	d := graph.Cholesky(6)
	got := dagFlops(d, 960)
	want := flops(6, 960)
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("dagFlops %g vs closed form %g", got, want)
	}
}

func TestDagFlopsSumsInAscendingKindOrder(t *testing.T) {
	// The total must be the ascending-kind sum bit for bit, whatever the
	// map iteration order of CountByKind.
	perKind := [graph.NumKinds]float64{
		graph.POTRF: kernels.PotrfFlops(960),
		graph.TRSM:  kernels.TrsmFlops(960),
		graph.SYRK:  kernels.SyrkFlops(960),
		graph.GEMM:  kernels.GemmFlops(960),
	}
	for _, d := range []*graph.DAG{graph.Cholesky(7), graph.BandedCholesky(23, 3), graph.Cholesky(40)} {
		var counts [graph.NumKinds]int
		for _, tk := range d.Tasks {
			counts[tk.Kind]++
		}
		want := 0.0
		for k := graph.Kind(0); k < graph.NumKinds; k++ {
			if counts[k] > 0 {
				want += float64(counts[k]) * perKind[k]
			}
		}
		for rep := 0; rep < 20; rep++ {
			if got := dagFlops(d, 960); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("P=%d: dagFlops %v, want ascending-kind sum %v", d.P, got, want)
			}
		}
	}
}

func TestBatchedThroughputGain(t *testing.T) {
	tbl, err := Batched(quickCfg(), 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	v := tbl.Series[0].Values
	if v[1] <= v[0] {
		t.Fatalf("batching should raise aggregate throughput: %g vs %g", v[1], v[0])
	}
}

func TestFig6ActualShapes(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{4, 8}
	cfg.Runs = 2
	tbl, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	sigmas := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
		sigmas[s.Name] = s.Sigmas
	}
	for i := range cfg.Sizes {
		if series["random"][i] > series["dmda"][i] {
			t.Fatal("random should lose in actual mode")
		}
	}
	// Actual-mode runs must report run-to-run spread.
	anySigma := false
	for _, sg := range sigmas["dmda"] {
		if sg > 0 {
			anySigma = true
		}
	}
	if !anySigma {
		t.Fatal("no standard deviations reported for actual-mode runs")
	}
}

func TestFig11HintNeverLoses(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{4, 8}
	cfg.Runs = 2
	tbl, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
	}
	for i := range cfg.Sizes {
		if series["triangle trsms on cpu"][i] < series["dmdas"][i]*0.98 {
			t.Fatalf("i=%d: hint %g notably below dmdas %g",
				i, series["triangle trsms on cpu"][i], series["dmdas"][i])
		}
	}
}

func TestPrioritySourceBothRun(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{6}
	tbl, err := PrioritySource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 2 {
		t.Fatal("want two variants")
	}
	for _, s := range tbl.Series {
		if s.Values[0] <= 0 {
			t.Fatalf("%s produced no result", s.Name)
		}
	}
}

func TestVariantsIdenticalPerformance(t *testing.T) {
	cfg := quickCfg()
	cfg.Sizes = []int{6}
	tbl, err := Variants(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The finding: dataflow inference makes the variants isomorphic.
	if tbl.Series[0].Values[0] != tbl.Series[1].Values[0] {
		t.Fatalf("variants diverge: %g vs %g",
			tbl.Series[0].Values[0], tbl.Series[1].Values[0])
	}
}

func TestSimulationFidelityRuns(t *testing.T) {
	cfg := quickCfg()
	cfg.RealSizes = []int{2, 3}
	cfg.RealNB = 24
	cfg.Runs = 3
	tbl, err := SimulationFidelity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tbl.Series {
		series[s.Name] = s.Values
	}
	for _, name := range []string{"real", "simulated"} {
		for i, v := range series[name] {
			if v <= 0 {
				t.Fatalf("%s[%d] = %g", name, i, v)
			}
		}
	}
	// Loose envelope: calibrated simulation within 20× of reality even on a
	// noisy single-CPU container (the methodology, not micro-accuracy).
	for i := range series["real"] {
		ratio := series["simulated"][i] / series["real"][i]
		if ratio < 0.05 || ratio > 20 {
			t.Fatalf("fidelity ratio %g out of envelope", ratio)
		}
	}
}
