package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestBoundsCachedRepeat is the headline acceptance check: the second
// identical /v1/bounds request is served from the cache, observable through
// the X-Cache header and the /metrics hit counter.
func TestBoundsCachedRepeat(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := BoundsRequest{Platform: "mirage", Tiles: 8}

	resp1 := postJSON(t, ts.URL+"/v1/bounds", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d", resp1.StatusCode)
	}
	if h := resp1.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", h)
	}
	b1 := decodeBody[BoundsResponse](t, resp1)
	if len(b1.Bounds) != 4 || b1.Bounds["mixed"].GFlops <= 0 {
		t.Fatalf("bad bounds payload: %+v", b1)
	}

	resp2 := postJSON(t, ts.URL+"/v1/bounds", req)
	if h := resp2.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("repeat request X-Cache = %q, want hit", h)
	}
	b2 := decodeBody[BoundsResponse](t, resp2)
	if b1.BestMakespan != b2.BestMakespan {
		t.Fatalf("cached result differs: %v vs %v", b1.BestMakespan, b2.BestMakespan)
	}

	if hits := s.Metrics().CounterValue("cholserved_cache_hits_total", Labels{"endpoint": "/v1/bounds"}); hits != 1 {
		t.Fatalf("cache hit counter = %v, want 1", hits)
	}

	// The hit must also be visible on the /metrics scrape itself.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	text := buf.String()
	if !strings.Contains(text, `cholserved_cache_hits_total{endpoint="/v1/bounds"} 1`) {
		t.Fatalf("/metrics missing hit counter:\n%s", text)
	}
	if !strings.Contains(text, "cholserved_request_seconds_bucket") {
		t.Fatal("/metrics missing latency histogram")
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SimulateRequest{Platform: "mirage", Scheduler: "dmdas", Tiles: 8, Seed: 42}

	resp := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	r1 := decodeBody[SimulateResponse](t, resp)
	if r1.GFlops <= 0 || r1.Efficiency <= 0 || r1.Efficiency > 1.001 {
		t.Fatalf("implausible report: %+v", r1)
	}

	resp2 := postJSON(t, ts.URL+"/v1/simulate", req)
	if h := resp2.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", h)
	}
	r2 := decodeBody[SimulateResponse](t, resp2)
	if r1.MakespanSec != r2.MakespanSec {
		t.Fatal("cached simulate differs from original")
	}

	// A different seed is a different key.
	req.Seed = 7
	resp3 := postJSON(t, ts.URL+"/v1/simulate", req)
	if h := resp3.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("changed-seed X-Cache = %q, want miss", h)
	}
	resp3.Body.Close()
}

func TestSimulateBadInputs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []SimulateRequest{
		{Platform: "no-such", Scheduler: "dmdas", Tiles: 4},
		{Platform: "mirage", Scheduler: "no-such", Tiles: 4},
		{Platform: "mirage", Scheduler: "dmdas", Tiles: 0},
		{Platform: "mirage", Scheduler: "dmdas", Tiles: 4, Algorithm: "no-such"},
	}
	for i, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/simulate", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
		body := decodeBody[map[string]string](t, resp)
		if body["error"] == "" {
			t.Errorf("case %d: no error body", i)
		}
	}
	// Unknown platform errors must enumerate the registry (satellite #3).
	resp := postJSON(t, ts.URL+"/v1/simulate", cases[0])
	body := decodeBody[map[string]string](t, resp)
	if !strings.Contains(body["error"], "mirage-nocomm") {
		t.Fatalf("error %q does not list registered platforms", body["error"])
	}
}

// TestSimulateTimeoutNoLeak asserts a request that exceeds the server's
// deadline returns 504 promptly, the worker slot is reclaimed, and no
// simulation goroutines are left behind.
func TestSimulateTimeoutNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{RequestTimeout: time.Millisecond})

	start := time.Now()
	resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Platform: "mirage", Scheduler: "dmdas", Tiles: 64})
	elapsed := time.Since(start)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timed-out request took %v to return", elapsed)
	}
	if s.pool.Active() != 0 || s.pool.QueueDepth() != 0 {
		t.Fatalf("worker slot not reclaimed: active=%d queued=%d", s.pool.Active(), s.pool.QueueDepth())
	}

	// Goroutine count settles back to around the baseline (allow slack for
	// the httptest server's own keep-alive machinery).
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+10 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestSweepEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := SweepRequest{
		Platform:   "mirage",
		Schedulers: []string{"dmda", "dmdas"},
		Tiles:      []int{4, 8},
		Seed:       42,
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	grid := decodeBody[SweepResponse](t, resp)
	if len(grid.Results) != 2 || len(grid.Results[0]) != 2 {
		t.Fatalf("grid shape %dx%d, want 2x2", len(grid.Results), len(grid.Results[0]))
	}
	for i, row := range grid.Results {
		for j, cell := range row {
			if cell == nil || cell.GFlops <= 0 {
				t.Fatalf("cell [%d][%d] = %+v", i, j, cell)
			}
			if cell.Tiles != req.Tiles[i] || cell.Scheduler == "" {
				t.Fatalf("cell [%d][%d] mismatched: %+v", i, j, cell)
			}
		}
	}

	// Sweep cells land in the shared simulate cache: the same cell via
	// /v1/simulate is now a hit.
	single := postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Platform: "mirage", Scheduler: "dmdas", Tiles: 8, Seed: 42})
	if h := single.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("sweep cell not shared with /v1/simulate: X-Cache = %q", h)
	}
	single.Body.Close()
	if s.Cache().Len() != 4 {
		t.Fatalf("cache holds %d entries after 2x2 sweep, want 4", s.Cache().Len())
	}
}

// TestSweepMatchesSimulate: every sweep cell equals the /v1/simulate answer
// for the same request, field for field, modulo run_id (each request logs
// its own ledger entry). The simulate calls go to a fresh server so none of
// them is served from a cache the sweep warmed.
func TestSweepMatchesSimulate(t *testing.T) {
	req := SweepRequest{
		Platform:   "mirage",
		Schedulers: []string{"dmda", "dmdas", "random"},
		Tiles:      []int{4, 6, 8},
		Seed:       7,
	}
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	grid := decodeBody[SweepResponse](t, resp)
	if len(grid.Results) != len(req.Tiles) {
		t.Fatalf("grid has %d rows, want %d", len(grid.Results), len(req.Tiles))
	}
	_, ref := newTestServer(t, Config{})
	want := make([][]SimulateResponse, len(req.Tiles))
	for i, tiles := range req.Tiles {
		for j, name := range req.Schedulers {
			sr := postJSON(t, ref.URL+"/v1/simulate",
				SimulateRequest{Platform: req.Platform, Scheduler: name, Tiles: tiles, Seed: req.Seed})
			if sr.Header.Get("X-Cache") == "hit" {
				t.Fatalf("reference simulate [%d][%d] served from cache", i, j)
			}
			cell := decodeBody[SimulateResponse](t, sr)
			cell.RunID = ""
			want[i] = append(want[i], cell)
		}
	}
	sameCells := func(label string, got SweepResponse) {
		t.Helper()
		for i := range want {
			for j := range want[i] {
				c := *got.Results[i][j]
				c.RunID = ""
				if c != want[i][j] {
					t.Errorf("%s cell [%d][%d]: sweep %+v, simulate %+v", label, i, j, c, want[i][j])
				}
			}
		}
	}
	sameCells("cold", grid)

	// A warm-cache sweep is all hits — and still correct. The legacy
	// "batch" field is accepted and changes nothing.
	r := req
	r.Batch = true
	resp = postJSON(t, ts.URL+"/v1/sweep", r)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm sweep with batch:true: status %d", resp.StatusCode)
	}
	sameCells("warm", decodeBody[SweepResponse](t, resp))

	// An unknown scheduler fails the whole request as 400.
	r = SweepRequest{Platform: "mirage", Schedulers: []string{"nope"}, Tiles: []int{4}}
	resp = postJSON(t, ts.URL+"/v1/sweep", r)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scheduler in sweep: status %d, want 400", resp.StatusCode)
	}
}

func TestExperimentEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[[]ExperimentInfo](t, resp)
	if len(list) == 0 {
		t.Fatal("empty experiment catalogue")
	}
	seen := map[string]bool{}
	for _, e := range list {
		seen[e.ID] = true
	}
	if !seen["fig2"] || !seen["fig1"] {
		t.Fatalf("catalogue missing known experiments: %v", list)
	}

	run, err := http.Get(ts.URL + "/v1/experiments/fig1")
	if err != nil {
		t.Fatal(err)
	}
	if run.StatusCode != http.StatusOK {
		t.Fatalf("fig1 status %d", run.StatusCode)
	}
	out := decodeBody[ExperimentResponse](t, run)
	if !strings.Contains(out.Output, "digraph") {
		t.Fatalf("fig1 output does not look like DOT: %.80s", out.Output)
	}

	again, err := http.Get(ts.URL + "/v1/experiments/fig1")
	if err != nil {
		t.Fatal(err)
	}
	if h := again.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("repeat experiment X-Cache = %q, want hit", h)
	}
	again.Body.Close()

	missing, err := http.Get(ts.URL + "/v1/experiments/no-such")
	if err != nil {
		t.Fatal(err)
	}
	if missing.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown experiment status %d, want 400", missing.StatusCode)
	}
	missing.Body.Close()
}

// TestCataloguesMatchRegistry pins the HTTP catalogues to the core registry —
// the service must not grow its own hand-maintained name lists.
func TestCataloguesMatchRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/platforms")
	if err != nil {
		t.Fatal(err)
	}
	plats := decodeBody[[]RegistryEntry](t, resp)
	if len(plats) != len(core.Platforms()) {
		t.Fatalf("%d platforms over HTTP, %d registered", len(plats), len(core.Platforms()))
	}
	for i, e := range core.Platforms() {
		if plats[i].Name != e.Display() {
			t.Fatalf("platform %d: %q != %q", i, plats[i].Name, e.Display())
		}
	}
	resp2, err := http.Get(ts.URL + "/v1/schedulers")
	if err != nil {
		t.Fatal(err)
	}
	scheds := decodeBody[[]RegistryEntry](t, resp2)
	if len(scheds) != len(core.Schedulers()) {
		t.Fatalf("%d schedulers over HTTP, %d registered", len(scheds), len(core.Schedulers()))
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestCacheHitLatencyDrop measures the acceptance criterion directly: a hot
// repeat must be at least 10x faster than the cold computation. The cold
// run simulates ~40k tasks (tens of milliseconds); a hit is a map lookup
// plus JSON encoding, so the margin is wide enough to stay stable in CI.
func TestCacheHitLatencyDrop(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SimulateRequest{Platform: "mirage", Scheduler: "dmdas", Tiles: 48, Seed: 42}

	coldStart := time.Now()
	resp := postJSON(t, ts.URL+"/v1/simulate", req)
	cold := time.Since(coldStart)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d", resp.StatusCode)
	}

	const reps = 10
	hotStart := time.Now()
	for i := 0; i < reps; i++ {
		r := postJSON(t, ts.URL+"/v1/simulate", req)
		if h := r.Header.Get("X-Cache"); h != "hit" {
			t.Fatalf("rep %d X-Cache = %q", i, h)
		}
		r.Body.Close()
	}
	hot := time.Since(hotStart) / reps
	t.Logf("cold=%v hot=%v speedup=%.0fx", cold, hot, float64(cold)/float64(hot))
	if hot*10 > cold {
		t.Fatalf("hot repeat %v is not >=10x faster than cold %v", hot, cold)
	}
}

// BenchmarkSimulateCold/Hot document the cache's latency drop as a benchmark
// (go test -bench=Simulate ./internal/service/).
func BenchmarkSimulateHot(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(SimulateRequest{Platform: "mirage", Scheduler: "dmdas", Tiles: 32, Seed: 42})
	warm, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	warm.Body.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

func BenchmarkSimulateCold(b *testing.B) {
	s := New(Config{CacheSize: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the seed so every request misses.
		body, _ := json.Marshal(SimulateRequest{Platform: "mirage", Scheduler: "dmdas", Tiles: 32, Seed: int64(i)})
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

func TestQueueFullReturns503(t *testing.T) {
	// One worker, minimal queue: saturate the slot with a slow request, park
	// a second one in the queue, then the third concurrent request must shed
	// with 503 instead of waiting. A short RequestTimeout bounds how long the
	// parked requests keep the test server busy during cleanup.
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RequestTimeout: 2 * time.Second})
	fire := func(seed int64) {
		body, _ := json.Marshal(SimulateRequest{Platform: "mirage", Scheduler: "dmdas", Tiles: 128, Seed: seed})
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}
	go fire(0)
	deadline := time.Now().Add(2 * time.Second)
	for s.pool.Active() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	go fire(1)
	for s.pool.QueueDepth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.pool.Active() == 0 || s.pool.QueueDepth() == 0 {
		t.Skip("slow requests finished before the queue filled; cannot exercise shedding")
	}
	resp := postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Platform: "mirage", Scheduler: "dmdas", Tiles: 128, Seed: 2})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}

func TestOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := OptimizeRequest{Platform: "mirage", Tiles: 4, NodeBudget: 3000, Workers: 1}

	resp := postJSON(t, ts.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", h)
	}
	r1 := decodeBody[OptimizeResponse](t, resp)
	if r1.MakespanSec <= 0 || r1.GFlops <= 0 || r1.Nodes < 1 {
		t.Fatalf("implausible optimize report: %+v", r1)
	}

	// Workers is excluded from the cache key on purpose: the search result is
	// bit-identical for every worker count, so a workers=8 request must be
	// served from the entry the workers=1 request computed.
	req.Workers = 8
	resp2 := postJSON(t, ts.URL+"/v1/optimize", req)
	if h := resp2.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("workers=8 X-Cache = %q, want hit (workers must not split the cache)", h)
	}
	r2 := decodeBody[OptimizeResponse](t, resp2)
	if r1.MakespanSec != r2.MakespanSec || r1.Nodes != r2.Nodes || r1.Exhausted != r2.Exhausted {
		t.Fatalf("cached optimize differs: %+v vs %+v", r1, r2)
	}

	// A different node budget is a different key.
	req.NodeBudget = 4000
	resp3 := postJSON(t, ts.URL+"/v1/optimize", req)
	if h := resp3.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("changed-budget X-Cache = %q, want miss", h)
	}
	resp3.Body.Close()
}

func TestOptimizeBadInputs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []OptimizeRequest{
		{Platform: "no-such", Tiles: 4},
		{Platform: "mirage", Tiles: 0},
		{Platform: "mirage", Tiles: 64},
		{Platform: "mirage", Tiles: 4, NodeBudget: -1},
		{Platform: "mirage", Tiles: 4, Workers: -2},
		{Platform: "mirage", Algorithm: "no-such", Tiles: 4},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/optimize", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", c, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestOptimizeSheds503(t *testing.T) {
	// Same saturation recipe as TestQueueFullReturns503, but the shed request
	// is an optimize: the CP search path must go through the same admission
	// pool as the simulations, not around it.
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RequestTimeout: 2 * time.Second})
	fire := func(seed int64) {
		body, _ := json.Marshal(SimulateRequest{Platform: "mirage", Scheduler: "dmdas", Tiles: 128, Seed: seed})
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}
	go fire(0)
	deadline := time.Now().Add(2 * time.Second)
	for s.pool.Active() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	go fire(1)
	for s.pool.QueueDepth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.pool.Active() == 0 || s.pool.QueueDepth() == 0 {
		t.Skip("slow requests finished before the queue filled; cannot exercise shedding")
	}
	resp := postJSON(t, ts.URL+"/v1/optimize",
		OptimizeRequest{Platform: "mirage", Tiles: 8, NodeBudget: 100000, Workers: 4})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}

func TestRequestKeyStability(t *testing.T) {
	p1, _ := core.NewPlatform("mirage")
	p2, _ := core.NewPlatform("mirage")
	if platformFingerprint(p1) != platformFingerprint(p2) {
		t.Fatal("same platform, different fingerprints")
	}
	p3, _ := core.NewPlatform("mirage-nocomm")
	if platformFingerprint(p1) == platformFingerprint(p3) {
		t.Fatal("different platforms share a fingerprint")
	}
	if requestKey("a", "x") == requestKey("b", "x") {
		t.Fatal("endpoint not part of the key")
	}
	if !strings.HasPrefix(requestKey("bounds", "x"), "bounds:") {
		t.Fatalf("key %q lacks endpoint prefix", requestKey("bounds", "x"))
	}
}
