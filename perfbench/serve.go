package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/simulator"
)

// serveClients is the number of closed-loop clients (and connections): one
// per CPU of the 2-CPU host the benchmark is sized for.
const serveClients = 2

// serveWorkers is the server's evaluation slots: cholserved's default of
// one per CPU. A batched sweep fans its cells out over the same number of
// goroutines while holding one slot, so queueing appears only behind it.
var serveWorkers = runtime.GOMAXPROCS(0)

// liveServer is one in-process service.New server on a loopback listener.
type liveServer struct {
	srv    *service.Server
	hs     *http.Server
	client *http.Client
	base   string
	served chan struct{}
}

func startServer() (*liveServer, error) {
	srv := service.New(service.Config{Workers: serveWorkers, LedgerSize: 1024})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler()},
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients, DisableCompression: true}},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(ls.served)
		ls.hs.Serve(ln)
	}()
	// A health check, then one small simulation to page in the request path.
	st, _, _, err := ls.do(http.MethodGet, "/healthz", nil)
	if err == nil && st == http.StatusOK {
		st, _, _, err = ls.do(http.MethodPost, "/v1/simulate",
			[]byte(`{"platform":"`+servePlatform+`","scheduler":"dmdas","tiles":16}`))
	}
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("warm-up: status %d", st)
	}
	if err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

// stop shuts the server down and returns once its Serve goroutine exited.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.client.CloseIdleConnections()
	ls.hs.Shutdown(ctx)
	<-ls.served
}

// reply is one answered HTTP call.
type reply struct {
	idx    int    // request index in the pass
	kind   string // request kind, or "trace" for the follow-up read
	status int
	lat    float64 // seconds, send to last body byte
	body   []byte
	hit    bool
}

func (ls *liveServer) do(method, path string, body []byte) (status int, out []byte, hit bool, err error) {
	req, err := http.NewRequest(method, ls.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header.Get("X-Cache") == "hit", err
}

// pass runs serveClients closed-loop clients, each sending its own
// requests of reqs in order, the next when the previous reply is in, and
// returns the replies in completion order. A non-nil tr records one span
// per call.
func (ls *liveServer) pass(reqs []request, tr *tracer) []reply {
	var mu sync.Mutex
	var out []reply
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range reqs {
				if q.Client != c {
					continue
				}
				var st int
				var body []byte
				var hit bool
				var err error
				t0 := time.Now()
				tr.timed(i, q.Kind, "pass", func() { st, body, hit, err = ls.do(http.MethodPost, q.Path, q.Body) })
				rs := []reply{{idx: i, kind: q.Kind, status: st, lat: time.Since(t0).Seconds(), body: body, hit: hit}}
				if err != nil {
					rs[0].status = 0
				}
				if q.Trace && err == nil && st == http.StatusOK {
					var sr service.SimulateResponse
					json.Unmarshal(body, &sr)
					var st2 int
					var tb []byte
					var err2 error
					t1 := time.Now()
					tr.timed(i, "trace", q.Kind, func() {
						st2, tb, _, err2 = ls.do(http.MethodGet, "/v1/runs/"+sr.RunID+"/trace", nil)
					})
					if err2 != nil {
						st2 = 0
					}
					rs = append(rs, reply{idx: i, kind: "trace", status: st2, lat: time.Since(t1).Seconds(), body: tb})
				}
				mu.Lock()
				out = append(out, rs...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// scrape reads /metrics into series → value.
func (ls *liveServer) scrape() (map[string]float64, error) {
	st, body, _, err := ls.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", st)
	}
	return parseMetrics(string(body)), nil
}

func parseMetrics(text string) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// sumSeries adds every series of family name whose labels contain match.
func sumSeries(m map[string]float64, name, match string) float64 {
	t := 0.0
	for k, v := range m {
		if (k == name || strings.HasPrefix(k, name+"{")) && strings.Contains(k, match) {
			t += v
		}
	}
	return t
}

// sampleQueue polls the queue-depth gauge through the handler (no extra
// connection) until stop is closed, and returns the maximum seen.
func sampleQueue(srv *service.Server, stop <-chan struct{}) float64 {
	mx := 0.0
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if v := parseMetrics(rec.Body.String())["cholserved_queue_depth"]; v > mx {
			mx = v
		}
		select {
		case <-stop:
			return mx
		case <-tick.C:
		}
	}
}

// runServe drives a fresh in-process server per pass with the seeded
// request list, then checks every reply against a direct in-process call
// of the same public function, made outside the timed region.
func runServe(e env) (*run, error) {
	reqs := serveRequests(e.seed)
	ls, setupS, err := timeSetup(setupReps, startServer, (*liveServer).stop)
	if err != nil {
		return nil, err
	}
	res := &run{values: map[string]float64{"setup_s": setupS}, facts: map[string]any{"requests_per_pass": len(reqs)}}
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	var all [][]reply
	var lat, untracedWall, tracedWall, passRSS []float64
	var tracedReplies []reply
	delta := map[string]float64{} // /metrics movement summed over traced passes
	queueMax, tracedPasses := 0.0, 0
	runPass := func(traced bool) error {
		if ls == nil {
			var err error
			if ls, err = startServer(); err != nil {
				return err
			}
		}
		defer func() {
			ls.stop()
			ls = nil
		}()
		var t *tracer
		var before map[string]float64
		var stop chan struct{}
		qmax := make(chan float64, 1)
		if traced {
			t = tr
			t.pass++
			var err error
			if before, err = ls.scrape(); err != nil {
				return err
			}
			stop = make(chan struct{})
			go func() { qmax <- sampleQueue(ls.srv, stop) }()
		}
		settle()
		resetPeakRSS()
		t0 := time.Now()
		rs := ls.pass(reqs, t)
		wall := time.Since(t0).Seconds()
		all = append(all, rs)
		if !traced {
			passRSS = append(passRSS, peakRSSMB())
			untracedWall = append(untracedWall, wall)
			for _, r := range rs {
				lat = append(lat, r.lat)
			}
			return nil
		}
		close(stop)
		if q := <-qmax; q > queueMax {
			queueMax = q
		}
		tracedPasses++
		tracedWall = append(tracedWall, wall)
		tracedReplies = append(tracedReplies, rs...)
		after, err := ls.scrape()
		if err != nil {
			return err
		}
		for k, v := range after {
			delta[k] += v - before[k]
		}
		return nil
	}
	for i := 0; i < e.passes; i++ {
		if err := runPass(false); err != nil {
			return nil, err
		}
		if e.trace {
			if err := runPass(true); err != nil {
				return nil, err
			}
		}
	}
	res.values["peak_rss_mb"] = median(passRSS)

	refs, err := serveReferences(e.ctx, reqs)
	if err != nil {
		return nil, err
	}
	for _, rs := range all {
		for _, r := range rs {
			res.attempted++
			if err := checkReply(reqs[r.idx], r, refs); err != nil {
				res.failed++
				fmt.Fprintf(os.Stderr, "perfbench: serve %s %s: %v\n", r.kind, reqs[r.idx].Body, err)
			}
		}
	}
	res.values["wall_s"] = median(untracedWall)
	res.values["ok_frac"] = 1 - frac(float64(res.failed), float64(res.attempted))
	latencyMetrics(res, lat)
	if !e.trace {
		return res, nil
	}

	n := float64(tracedPasses)
	byKind := map[string][]float64{}
	clientS, shed, nodes := 0.0, 0.0, 0.0
	for _, r := range tracedReplies {
		byKind[r.kind] = append(byKind[r.kind], r.lat*1e3)
		clientS += r.lat
		if r.status == http.StatusServiceUnavailable || r.status == http.StatusGatewayTimeout {
			shed++
		}
		if r.kind == "optimize" && !r.hit && r.status == http.StatusOK {
			var o service.OptimizeResponse
			if json.Unmarshal(r.body, &o) == nil {
				nodes += float64(o.Nodes)
			}
		}
	}
	for _, k := range []string{"simulate", "bounds", "sweep", "optimize"} {
		res.values["service."+k+"_p50_ms"] = median(byKind[k])
	}
	for _, ph := range []string{"prep", "simulate", "bounds", "solve", "sweep"} {
		res.values["service.phase."+ph+"_s"] =
			sumSeries(delta, "cholserved_phase_seconds_sum", `phase="`+ph+`"`) / n
	}
	serverS := sumSeries(delta, "cholserved_request_seconds_sum", "")
	res.values["service.server_s"] = serverS / n
	res.values["service.http_overhead_frac"] = 1 - frac(serverS, clientS)
	res.values["service.sim_events"] = sumSeries(delta, "cholserved_sim_events_total", "") / n
	hits := sumSeries(delta, "cholserved_cache_hits_total", "")
	res.values["service.cache_hit_frac"] = frac(hits, hits+sumSeries(delta, "cholserved_cache_misses_total", ""))
	res.values["service.queue_depth_max"] = queueMax
	res.values["service.shed_frac"] = frac(shed, float64(len(tracedReplies)))
	res.values["cpsolve.nodes_per_s"] = frac(nodes, sumSeries(delta, "cholserved_phase_seconds_sum", `phase="solve"`))
	res.values["trace.overhead"] = median(tracedWall) / median(untracedWall)
	res.values["sim_tasks_per_s"] = float64(simulatedTasks(reqs)) / median(untracedWall)
	if err := tr.write(traceDir, fmt.Sprintf("serve-seed%d.json", e.seed), res.facts); err != nil {
		return nil, err
	}
	return res, nil
}

// simulatedTasks is the number of Cholesky tasks a fresh server simulates
// for one pass: every distinct simulation of reqs, sweep cells included,
// runs once (repeats are cache hits).
func simulatedTasks(reqs []request) int {
	seen := map[simKey]bool{}
	n := 0
	add := func(k simKey) {
		if !seen[k] {
			seen[k] = true
			n += k.tiles * (k.tiles + 1) * (k.tiles + 2) / 6
		}
	}
	for _, q := range reqs {
		switch q.Kind {
		case "simulate":
			var b service.SimulateRequest
			if json.Unmarshal(q.Body, &b) == nil {
				add(simKey{b.Tiles, b.Scheduler, b.Seed})
			}
		case "sweep":
			var b service.SweepRequest
			if json.Unmarshal(q.Body, &b) == nil {
				for _, t := range b.Tiles {
					for _, s := range b.Schedulers {
						add(simKey{t, s, b.Seed})
					}
				}
			}
		}
	}
	return n
}

// simKey identifies one simulation the serve workload asks for.
type simKey struct {
	tiles     int
	scheduler string
	seed      int64
}

// serveRefs are the in-process answers the replies must equal.
type serveRefs struct {
	sim      map[simKey]*core.SimulationReport
	bounds   map[int]service.BoundsResponse
	optimize map[string]service.OptimizeResponse // by request body
}

// serveReferences computes, with serveClients goroutines, the direct
// in-process result of every distinct simulation, bounds and optimize call
// in reqs.
func serveReferences(ctx context.Context, reqs []request) (*serveRefs, error) {
	p, err := core.NewPlatform(servePlatform)
	if err != nil {
		return nil, err
	}
	refs := &serveRefs{sim: map[simKey]*core.SimulationReport{}, bounds: map[int]service.BoundsResponse{},
		optimize: map[string]service.OptimizeResponse{}}
	var jobs []func() error
	var mu sync.Mutex
	addSim := func(k simKey) {
		if _, ok := refs.sim[k]; ok {
			return
		}
		refs.sim[k] = nil
		jobs = append(jobs, func() error {
			s, err := core.NewScheduler(k.scheduler)
			if err != nil {
				return err
			}
			rep, err := core.Simulate(ctx, k.tiles, p, s, simulator.Options{Seed: k.seed})
			mu.Lock()
			refs.sim[k] = rep
			mu.Unlock()
			return err
		})
	}
	for _, q := range reqs {
		switch q.Kind {
		case "simulate":
			var b service.SimulateRequest
			if err := json.Unmarshal(q.Body, &b); err != nil {
				return nil, err
			}
			addSim(simKey{b.Tiles, b.Scheduler, b.Seed})
		case "sweep":
			var b service.SweepRequest
			if err := json.Unmarshal(q.Body, &b); err != nil {
				return nil, err
			}
			for _, t := range b.Tiles {
				for _, s := range b.Schedulers {
					addSim(simKey{t, s, b.Seed})
				}
			}
		case "bounds":
			var b service.BoundsRequest
			if err := json.Unmarshal(q.Body, &b); err != nil {
				return nil, err
			}
			if _, ok := refs.bounds[b.Tiles]; ok {
				continue
			}
			refs.bounds[b.Tiles] = service.BoundsResponse{}
			jobs = append(jobs, func() error {
				all, err := core.BoundsFor(b.Tiles, p)
				if err != nil {
					return err
				}
				mk := func(v float64) service.BoundValue { return service.BoundValue{MakespanSec: v} }
				mu.Lock()
				refs.bounds[b.Tiles] = service.BoundsResponse{Tiles: b.Tiles, BestMakespan: all.Best(),
					Bounds: map[string]service.BoundValue{
						"critical_path": mk(all.CriticalPath.MakespanSec), "area": mk(all.Area.MakespanSec),
						"mixed": mk(all.Mixed.MakespanSec), "gemm_peak": mk(all.GemmPeak.MakespanSec)}}
				mu.Unlock()
				return nil
			})
		case "optimize":
			var b service.OptimizeRequest
			if err := json.Unmarshal(q.Body, &b); err != nil {
				return nil, err
			}
			key := string(q.Body)
			if _, ok := refs.optimize[key]; ok {
				continue
			}
			refs.optimize[key] = service.OptimizeResponse{}
			jobs = append(jobs, func() error {
				r, err := core.OptimizeSchedule(ctx, b.Tiles, p, b.NodeBudget, 1)
				if err != nil {
					return err
				}
				mu.Lock()
				refs.optimize[key] = service.OptimizeResponse{MakespanSec: r.Makespan, Nodes: r.Nodes, Exhausted: r.Exhausted}
				mu.Unlock()
				return nil
			})
		}
	}
	var next atomic.Int64
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || errs[w] != nil {
					return
				}
				errs[w] = jobs[i]()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
	}
	return refs, nil
}

// checkSim compares one served simulation with its in-process reference and
// checks it against the mixed bound.
func checkSim(got service.SimulateResponse, ref *core.SimulationReport) error {
	want := service.SimulateResponse{
		MakespanSec: ref.MakespanSec, GFlops: ref.GFlops, BoundGFlops: ref.BoundGFlops,
		Efficiency: ref.Efficiency, TransferSec: ref.Result.TransferSec,
		TransferCount: ref.Result.TransferCount, Evictions: ref.Result.Evictions,
		Writebacks: ref.Result.Writebacks, StallSec: ref.Result.StallSec,
	}
	g := got
	g.Platform, g.Scheduler, g.Algorithm, g.Tiles, g.MatrixSize, g.RunID = "", "", "", 0, 0, ""
	if g != want {
		return fmt.Errorf("served %+v, in-process %+v", g, want)
	}
	if got.Tiles != ref.Tiles || got.Scheduler != ref.Scheduler {
		return fmt.Errorf("served tiles=%d scheduler=%s, asked tiles=%d scheduler=%s",
			got.Tiles, got.Scheduler, ref.Tiles, ref.Scheduler)
	}
	return checkBound(got.MakespanSec*got.GFlops/got.BoundGFlops, got.MakespanSec)
}

// checkReply validates one reply: status 200 and a body equal to the
// in-process reference.
func checkReply(q request, r reply, refs *serveRefs) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	switch r.kind {
	case "trace":
		if !json.Valid(r.body) {
			return fmt.Errorf("trace is not valid JSON")
		}
	case "simulate":
		var b service.SimulateRequest
		var got service.SimulateResponse
		if err := unmarshal2(q.Body, &b, r.body, &got); err != nil {
			return err
		}
		return checkSim(got, refs.sim[simKey{b.Tiles, b.Scheduler, b.Seed}])
	case "sweep":
		var b service.SweepRequest
		var got service.SweepResponse
		if err := unmarshal2(q.Body, &b, r.body, &got); err != nil {
			return err
		}
		if len(got.Results) != len(b.Tiles) {
			return fmt.Errorf("sweep returned %d rows for %d tile counts", len(got.Results), len(b.Tiles))
		}
		for i, t := range b.Tiles {
			if len(got.Results[i]) != len(b.Schedulers) {
				return fmt.Errorf("sweep row %d has %d cells for %d schedulers", i, len(got.Results[i]), len(b.Schedulers))
			}
			for j, s := range b.Schedulers {
				if err := checkSim(*got.Results[i][j], refs.sim[simKey{t, s, b.Seed}]); err != nil {
					return fmt.Errorf("cell tiles=%d %s: %w", t, s, err)
				}
			}
		}
	case "bounds":
		var b service.BoundsRequest
		var got service.BoundsResponse
		if err := unmarshal2(q.Body, &b, r.body, &got); err != nil {
			return err
		}
		want := refs.bounds[b.Tiles]
		if got.Tiles != want.Tiles || got.BestMakespan != want.BestMakespan || len(got.Bounds) != len(want.Bounds) {
			return fmt.Errorf("served %+v, in-process %+v", got, want)
		}
		for k, v := range want.Bounds {
			if got.Bounds[k].MakespanSec != v.MakespanSec {
				return fmt.Errorf("bound %s: served %v s, in-process %v s", k, got.Bounds[k].MakespanSec, v.MakespanSec)
			}
		}
	case "optimize":
		var got service.OptimizeResponse
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		want := refs.optimize[string(q.Body)]
		if got.MakespanSec != want.MakespanSec || got.Nodes != want.Nodes || got.Exhausted != want.Exhausted {
			return fmt.Errorf("served makespan=%v nodes=%d exhausted=%v, in-process makespan=%v nodes=%d exhausted=%v",
				got.MakespanSec, got.Nodes, got.Exhausted, want.MakespanSec, want.Nodes, want.Exhausted)
		}
	}
	return nil
}

func unmarshal2(reqBody []byte, req any, respBody []byte, resp any) error {
	if err := json.Unmarshal(reqBody, req); err != nil {
		return fmt.Errorf("request: %w", err)
	}
	if err := json.Unmarshal(respBody, resp); err != nil {
		return fmt.Errorf("reply: %w", err)
	}
	return nil
}
