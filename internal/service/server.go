// Package service is the evaluation service layer behind cmd/cholserved: a
// long-running HTTP/JSON façade over the core API that turns one-shot CLI
// evaluations ("bounds + simulated makespan for (platform, scheduler, n)")
// into something that survives sustained concurrent traffic.
//
// It adds three things the library layer deliberately does not have:
//
//   - a concurrency-safe LRU result cache keyed by a canonical request hash
//     (platform fingerprint × scheduler × options × tile count), with
//     singleflight deduplication so identical concurrent misses run the LP
//     solve and event loop once;
//   - a bounded worker pool with a queue-depth limit and a per-request
//     timeout, the context cancelling down through core into the simulator
//     event loop and the CP branch-and-bound;
//   - an observability surface: /metrics in Prometheus text format,
//     /healthz, and net/http/pprof under /debug/pprof/.
//
// Because the service is the one layer that must survive unattended,
// chollint's leakguard analyzer patrols every `go` statement in this
// package: a spawned goroutine whose loop is not tied to a ctx.Done/ctx.Err
// check, a close-gated channel range, or a comma-ok receive is a build
// failure, not a code-review hope (escape: //chollint:leakok with the
// external join spelled out).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/autotune"
	"repro/internal/bounds"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/simulator"
)

// Config tunes one Server.
type Config struct {
	// CacheSize is the LRU capacity in entries (default 1024).
	CacheSize int
	// Workers bounds concurrently executing evaluations (default 4).
	Workers int
	// QueueDepth bounds admitted requests waiting for a worker slot; beyond
	// it requests are shed with 503 (default 64).
	QueueDepth int
	// RequestTimeout is the per-request evaluation deadline (default 30s).
	RequestTimeout time.Duration
	// LedgerSize bounds the run ledger: how many recent evaluations stay
	// inspectable through /v1/runs (default 64).
	LedgerSize int
	// FrameRing bounds each ledgered run's live progress-frame buffer: the
	// backlog a late or reconnecting /v1/runs/{id}/live subscriber can
	// replay (default 256 frames; older frames are evicted).
	FrameRing int
	// Heartbeat is the SSE keep-alive comment interval on live streams
	// (default 5s).
	Heartbeat time.Duration
	// StreamTimeout bounds one live-stream connection's lifetime; clients
	// reconnect with Last-Event-ID and resume from the frame ring
	// (default 5m).
	StreamTimeout time.Duration
	// Logger receives one structured record per request (with request ID,
	// status and latency). Nil discards records; request IDs are still
	// assigned and echoed in X-Request-ID.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 1024
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.LedgerSize <= 0 {
		c.LedgerSize = 64
	}
	if c.FrameRing <= 0 {
		c.FrameRing = 256
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 5 * time.Second
	}
	if c.StreamTimeout <= 0 {
		c.StreamTimeout = 5 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = discardLogger()
	}
	return c
}

// Server is the evaluation service. Create with New, mount via Handler.
type Server struct {
	cfg     Config
	cache   *LRU
	flight  flightGroup
	pool    *Pool
	metrics *Metrics
	ledger  *Ledger
	mux     *http.ServeMux
	// replayPool recycles simulator arenas across batched sweep cells and
	// across requests (replay.Pool is concurrency-safe; zero value ready).
	replayPool replay.Pool
}

// New builds a Server with its routes mounted.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
	}
	s.cache = NewLRU(s.cfg.CacheSize)
	s.pool = NewPool(s.cfg.Workers, s.cfg.QueueDepth)
	s.ledger = NewLedger(s.cfg.LedgerSize)

	s.metrics.GaugeFunc("cholserved_cache_entries", "Entries resident in the result cache.",
		func() float64 { return float64(s.cache.Len()) })
	s.metrics.GaugeFunc("cholserved_ledger_runs", "Evaluations resident in the run ledger.",
		func() float64 { return float64(s.ledger.Len()) })
	s.metrics.GaugeFunc("cholserved_queue_depth", "Admitted requests waiting for a worker slot.",
		func() float64 { return float64(s.pool.QueueDepth()) })
	s.metrics.GaugeFunc("cholserved_active_workers", "Evaluations currently holding a worker slot.",
		func() float64 { return float64(s.pool.Active()) })

	s.mux.HandleFunc("POST /v1/bounds", s.instrument("/v1/bounds", s.handleBounds))
	s.mux.HandleFunc("POST /v1/simulate", s.instrument("/v1/simulate", s.handleSimulate))
	s.mux.HandleFunc("POST /v1/optimize", s.instrument("/v1/optimize", s.handleOptimize))
	s.mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	s.mux.HandleFunc("GET /v1/experiments", s.instrument("/v1/experiments", s.handleExperimentList))
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.instrument("/v1/experiments/{id}", s.handleExperiment))
	s.mux.HandleFunc("GET /v1/platforms", s.instrument("/v1/platforms", s.handlePlatforms))
	s.mux.HandleFunc("GET /v1/schedulers", s.instrument("/v1/schedulers", s.handleSchedulers))
	s.mux.HandleFunc("GET /v1/runs", s.instrument("/v1/runs", s.handleRunList))
	s.mux.HandleFunc("GET /v1/runs/{id}", s.instrument("/v1/runs/{id}", s.handleRun))
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.instrument("/v1/runs/{id}/trace", s.handleRunTrace))
	s.mux.HandleFunc("GET /v1/runs/{id}/live", s.instrumentStream("/v1/runs/{id}/live", s.handleRunLive))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.Render(w)
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the mounted routes wrapped in the request-logging
// middleware (request IDs + one slog record per request).
func (s *Server) Handler() http.Handler { return withLogging(s.cfg.Logger, s.mux) }

// Ledger exposes the run ledger (tests assert entries directly).
func (s *Server) Ledger() *Ledger { return s.ledger }

// Metrics exposes the registry (tests scrape it directly).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Cache exposes the result cache (tests assert hit/miss behaviour).
func (s *Server) Cache() *LRU { return s.cache }

// ---------------------------------------------------------------------------
// Instrumentation and error plumbing

type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer's Flusher
// through the instrumentation wrappers (the SSE live stream flushes per
// event).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with the per-request timeout, the latency
// histogram, and the request counter.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r.WithContext(ctx))
		s.metrics.Observe("cholserved_request_seconds",
			"Wall-clock request latency by endpoint.",
			Labels{"endpoint": endpoint}, DefBuckets, time.Since(start).Seconds())
		s.metrics.CounterAdd("cholserved_requests_total",
			"Requests served, by endpoint and status code.",
			Labels{"endpoint": endpoint, "code": strconv.Itoa(sw.status)}, 1)
	}
}

// observePhase feeds one completed obs.Span into the per-phase wall-clock
// histogram (the obs.SpanObserver the service installs everywhere).
func (s *Server) observePhase(phase string, seconds float64) {
	s.metrics.Observe("cholserved_phase_seconds",
		"Wall-clock time spent per evaluation phase.",
		Labels{"phase": phase}, DefBuckets, seconds)
}

// frameSink returns the probe sink for one ledgered run: every frame is
// counted by source and published into the run's ring, which fans it out to
// live SSE subscribers.
func (s *Server) frameSink(ring *obs.FrameRing) func(obs.Frame) {
	return func(f obs.Frame) {
		s.metrics.CounterAdd("cholserved_probe_frames_total",
			"Live progress frames published, by source.",
			Labels{"source": f.Source}, 1)
		ring.Publish(f)
	}
}

type apiError struct {
	status int
	err    error
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

func badRequest(err error) error { return &apiError{status: http.StatusBadRequest, err: err} }

// writeErr maps an error to its HTTP status and emits the JSON error body.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		status = ae.status
	case errors.Is(err, ErrQueueFull):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any, cacheHit bool) {
	w.Header().Set("Content-Type", "application/json")
	if cacheHit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	json.NewEncoder(w).Encode(v)
}

// cached serves key from the LRU or computes it under a worker slot with
// singleflight deduplication, storing successful results.
func (s *Server) cached(ctx context.Context, endpoint, key string, compute func() (any, error)) (any, bool, error) {
	if v, ok := s.cache.Get(key); ok {
		s.metrics.CounterAdd("cholserved_cache_hits_total",
			"Requests served from the result cache.", Labels{"endpoint": endpoint}, 1)
		return v, true, nil
	}
	s.metrics.CounterAdd("cholserved_cache_misses_total",
		"Requests that had to compute their result.", Labels{"endpoint": endpoint}, 1)
	var val any
	err := s.pool.Do(ctx, func() error {
		v, _, ferr := s.flight.Do(ctx, key, compute)
		if ferr != nil {
			return ferr
		}
		s.cache.Put(key, v)
		val = v
		return nil
	})
	return val, false, err
}

func decode[T any](r *http.Request) (T, error) {
	var req T
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, badRequest(fmt.Errorf("service: bad request body: %w", err))
	}
	return req, nil
}

// ---------------------------------------------------------------------------
// /v1/bounds

// BoundsRequest asks for the paper's four makespan bounds of a tiled
// Cholesky on a registered platform.
type BoundsRequest struct {
	Platform string `json:"platform"`
	Tiles    int    `json:"tiles"`
}

// BoundValue is one bound in both views (lower bound on time, upper bound
// on performance).
type BoundValue struct {
	MakespanSec float64 `json:"makespan_sec"`
	GFlops      float64 `json:"gflops"`
}

// BoundsResponse carries the four Figure-2 bounds.
type BoundsResponse struct {
	Platform     string                `json:"platform"`
	Tiles        int                   `json:"tiles"`
	MatrixSize   int                   `json:"matrix_size"`
	Bounds       map[string]BoundValue `json:"bounds"`
	BestMakespan float64               `json:"best_makespan_sec"`
}

func (s *Server) handleBounds(w http.ResponseWriter, r *http.Request) {
	req, err := decode[BoundsRequest](r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if req.Tiles < 1 || req.Tiles > 256 {
		writeErr(w, badRequest(fmt.Errorf("service: tiles must be in [1, 256], got %d", req.Tiles)))
		return
	}
	p, err := core.NewPlatform(req.Platform)
	if err != nil {
		writeErr(w, badRequest(err))
		return
	}
	key := requestKey("bounds", platformFingerprint(p), strconv.Itoa(req.Tiles))
	v, hit, err := s.cached(r.Context(), "/v1/bounds", key, func() (any, error) {
		all, err := core.BoundsFor(req.Tiles, p)
		if err != nil {
			return nil, err
		}
		fl, _ := core.FlopsByAlgorithm("cholesky", req.Tiles*platform.TileNB)
		mk := func(b bounds.Result) BoundValue {
			return BoundValue{MakespanSec: b.MakespanSec, GFlops: b.GFlops(fl)}
		}
		return &BoundsResponse{
			Platform:   req.Platform,
			Tiles:      req.Tiles,
			MatrixSize: req.Tiles * platform.TileNB,
			Bounds: map[string]BoundValue{
				"critical_path": mk(all.CriticalPath),
				"area":          mk(all.Area),
				"mixed":         mk(all.Mixed),
				"gemm_peak":     mk(all.GemmPeak),
			},
			BestMakespan: all.Best(),
		}, nil
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, v, hit)
}

// ---------------------------------------------------------------------------
// /v1/simulate

// SimulateRequest asks for one simulated execution of a factorization DAG
// on a registered platform under a registered scheduler.
type SimulateRequest struct {
	Platform  string `json:"platform"`
	Scheduler string `json:"scheduler"`
	Algorithm string `json:"algorithm,omitempty"` // cholesky (default) | lu | qr
	Tiles     int    `json:"tiles"`
	Seed      int64  `json:"seed,omitempty"`
	// NB is the tile size in elements (0 = the platform's reference size);
	// a different size rescales the model, cholesky only. NBSplit, when
	// non-empty, is a cholsim-style "F@K" spec building a HeSP mixed-tile
	// DAG: from coarse panel K on, trailing tiles split F× per side.
	NB           int    `json:"nb,omitempty"`
	NBSplit      string `json:"nb_split,omitempty"`
	Overhead     bool   `json:"overhead,omitempty"`
	WorkStealing bool   `json:"work_stealing,omitempty"`
	// Record attaches the obs event recorder: the run's scheduling decisions
	// (with every candidate's completion-time terms), transfers, evictions
	// and idle intervals become inspectable through /v1/runs/{id}. Recording
	// never changes the schedule.
	Record bool `json:"record,omitempty"`
}

// SimulateResponse summarizes the run against the mixed bound.
type SimulateResponse struct {
	Platform      string  `json:"platform"`
	Scheduler     string  `json:"scheduler"`
	Algorithm     string  `json:"algorithm"`
	Tiles         int     `json:"tiles"`
	MatrixSize    int     `json:"matrix_size"`
	MakespanSec   float64 `json:"makespan_sec"`
	GFlops        float64 `json:"gflops"`
	BoundGFlops   float64 `json:"bound_gflops"`
	Efficiency    float64 `json:"efficiency"`
	TransferSec   float64 `json:"transfer_sec"`
	TransferCount int     `json:"transfer_count"`
	Evictions     int     `json:"evictions"`
	Writebacks    int     `json:"writebacks"`
	StallSec      float64 `json:"stall_sec"`
	// RunID names the ledger entry of the evaluation that produced this
	// response. Cache hits replay the ID assigned when the run was computed;
	// the entry itself may have aged out of the bounded ledger by then.
	RunID string `json:"run_id,omitempty"`
}

func (r SimulateRequest) normalize() (SimulateRequest, error) {
	if r.Algorithm == "" {
		r.Algorithm = "cholesky"
	}
	if r.Tiles < 1 || r.Tiles > 128 {
		return r, fmt.Errorf("service: tiles must be in [1, 128], got %d", r.Tiles)
	}
	if r.Scheduler == "" {
		return r, fmt.Errorf("service: scheduler is required")
	}
	if r.NB < 0 {
		return r, fmt.Errorf("service: nb must be non-negative, got %d", r.NB)
	}
	if (r.NB != 0 || r.NBSplit != "") && r.Algorithm != "cholesky" {
		return r, fmt.Errorf("service: nb/nb_split apply to algorithm cholesky only, got %q", r.Algorithm)
	}
	if r.NBSplit != "" {
		if _, err := cliflags.ParseSplit(r.NBSplit); err != nil {
			return r, fmt.Errorf("service: bad nb_split: %w", err)
		}
	}
	return r, nil
}

func (r SimulateRequest) key(fp string) string {
	return requestKey("simulate", fp, r.Scheduler, r.Algorithm,
		strconv.Itoa(r.Tiles), strconv.FormatInt(r.Seed, 10),
		strconv.Itoa(r.NB), r.NBSplit,
		strconv.FormatBool(r.Overhead), strconv.FormatBool(r.WorkStealing),
		strconv.FormatBool(r.Record))
}

// simulateOnce resolves and runs one simulation request (the shared compute
// path of /v1/simulate and /v1/sweep cells).
func (s *Server) simulateOnce(ctx context.Context, req SimulateRequest, p *platform.Platform) (*SimulateResponse, error) {
	prep := obs.StartSpan(obs.PhasePrep, s.observePhase)
	sch, err := core.NewScheduler(req.Scheduler)
	if err != nil {
		return nil, badRequest(err)
	}
	nb := req.NB
	if nb == 0 {
		nb = p.DefaultNB()
	}
	if nb != p.DefaultNB() {
		p = autotune.ScalePlatform(p, p.DefaultNB(), nb)
	}
	var d *graph.DAG
	if req.NBSplit != "" {
		sp, err := cliflags.ParseSplit(req.NBSplit)
		if err != nil {
			return nil, badRequest(err)
		}
		if err := sp.Check(req.Tiles, nb); err != nil {
			return nil, badRequest(err)
		}
		p.Model = platform.ModelScaled // price the fine tiles by scaling
		d = graph.CholeskySplit(req.Tiles, sp.FromK, sp.Factor, nb)
	} else if d, err = core.DAGByAlgorithm(req.Algorithm, req.Tiles); err != nil {
		return nil, badRequest(err)
	}
	if err := p.Validate(d.Kinds()); err != nil {
		return nil, badRequest(fmt.Errorf("service: platform %q cannot run %s: %w", req.Platform, req.Algorithm, err))
	}
	fl, err := core.FlopsByAlgorithm(req.Algorithm, req.Tiles*nb)
	if err != nil {
		return nil, badRequest(err)
	}
	var rec *obs.Recorder
	if req.Record {
		rec = obs.NewRecorder()
	}
	prep.End()

	// Open the ledger entry before running so a live stream can attach to
	// the evaluation in flight; the probe publishes progress frames into the
	// entry's ring at the event loop's bounded cadence.
	ring := obs.NewFrameRing(s.cfg.FrameRing)
	runID := s.ledger.Open(&RunEntry{
		Kind:      KindSimulate,
		CreatedAt: time.Now(),
		Request:   req,
		Recorder:  rec,
		Frames:    ring,
	})
	probe := obs.NewProbe(0, s.frameSink(ring))
	rep, err := core.SimulateDAGObserved(ctx, d, fl, p, sch, simulator.Options{
		Seed: req.Seed, Overhead: req.Overhead, WorkStealing: req.WorkStealing,
		Recorder: rec, Probe: probe,
	}, s.observePhase)
	if err != nil {
		s.ledger.Fail(runID, err)
		return nil, err
	}
	if rec != nil {
		// Sorted iteration keeps the /metrics series order deterministic
		// across runs (map ranging would register label sets in random
		// first-seen order).
		for _, ec := range rec.EventCountsSorted() {
			s.metrics.CounterAdd("cholserved_sim_events_total",
				"Simulator events captured by the obs recorder, by type.",
				Labels{"type": ec.Type}, float64(ec.Count))
		}
		for _, dec := range rec.Decisions {
			s.metrics.Observe("cholserved_decision_depth",
				"Candidate workers weighed per scheduling decision.",
				nil, DepthBuckets, float64(dec.CandLen))
		}
	}
	resp := &SimulateResponse{
		Platform:      req.Platform,
		Scheduler:     rep.Scheduler,
		Algorithm:     req.Algorithm,
		Tiles:         req.Tiles,
		MatrixSize:    req.Tiles * nb,
		MakespanSec:   rep.MakespanSec,
		GFlops:        rep.GFlops,
		BoundGFlops:   rep.BoundGFlops,
		Efficiency:    rep.Efficiency,
		TransferSec:   rep.Result.TransferSec,
		TransferCount: rep.Result.TransferCount,
		Evictions:     rep.Result.Evictions,
		Writebacks:    rep.Result.Writebacks,
		StallSec:      rep.Result.StallSec,
	}
	resp.RunID = runID
	s.ledger.Complete(runID, func(e *RunEntry) {
		e.Response = resp
		e.Result = rep.Result
	})
	return resp, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, err := decode[SimulateRequest](r)
	if err != nil {
		writeErr(w, err)
		return
	}
	req, err = req.normalize()
	if err != nil {
		writeErr(w, badRequest(err))
		return
	}
	p, err := core.NewPlatform(req.Platform)
	if err != nil {
		writeErr(w, badRequest(err))
		return
	}
	v, hit, err := s.cached(r.Context(), "/v1/simulate", req.key(platformFingerprint(p)), func() (any, error) {
		return s.simulateOnce(r.Context(), req, p)
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, v, hit)
}

// ---------------------------------------------------------------------------
// /v1/optimize

// OptimizeRequest asks the CP branch-and-bound for a near-optimal static
// schedule of a factorization DAG on a registered platform — the service
// view of the paper's CP experiment.
type OptimizeRequest struct {
	Platform  string `json:"platform"`
	Algorithm string `json:"algorithm,omitempty"` // cholesky (default) | lu | qr
	Tiles     int    `json:"tiles"`
	// NodeBudget caps the branch-and-bound expansion (default 50000; the
	// service clamps requests above 2000000 so one call cannot monopolize a
	// worker slot for the whole request timeout).
	NodeBudget int `json:"node_budget,omitempty"`
	// Workers is the number of goroutines exploring the search tree (default
	// 1, capped at 16). The search is deterministic: every Workers value
	// returns the bit-identical Result, so Workers only buys wall-clock.
	Workers int `json:"workers,omitempty"`
}

// OptimizeResponse reports the best static schedule found within the budget.
type OptimizeResponse struct {
	Platform    string  `json:"platform"`
	Algorithm   string  `json:"algorithm"`
	Tiles       int     `json:"tiles"`
	MatrixSize  int     `json:"matrix_size"`
	MakespanSec float64 `json:"makespan_sec"`
	GFlops      float64 `json:"gflops"`
	// Nodes is the number of search-tree nodes expanded; Exhausted reports
	// whether the search proved optimality (explored or pruned the whole
	// space) rather than stopping at the budget.
	Nodes     int  `json:"nodes"`
	Exhausted bool `json:"exhausted"`
	// RunID names the ledger entry of the search that produced this
	// response; `GET /v1/runs/{id}/live` streams its progress (nodes
	// expanded, incumbent trajectory) while the search runs. Cache hits
	// replay the ID assigned when the search was computed.
	RunID string `json:"run_id,omitempty"`
}

func (r OptimizeRequest) normalize() (OptimizeRequest, error) {
	if r.Algorithm == "" {
		r.Algorithm = "cholesky"
	}
	// The CP search is exponential in the task count; 32 tiles (~6.5k tasks)
	// is already far beyond what a request-scoped budget explores usefully.
	if r.Tiles < 1 || r.Tiles > 32 {
		return r, fmt.Errorf("service: tiles must be in [1, 32], got %d", r.Tiles)
	}
	if r.NodeBudget < 0 {
		return r, fmt.Errorf("service: node_budget must be >= 0, got %d", r.NodeBudget)
	}
	if r.NodeBudget == 0 {
		r.NodeBudget = 50000
	}
	if r.NodeBudget > 2000000 {
		r.NodeBudget = 2000000
	}
	if r.Workers < 0 {
		return r, fmt.Errorf("service: workers must be >= 0, got %d", r.Workers)
	}
	if r.Workers == 0 {
		r.Workers = 1
	}
	if r.Workers > 16 {
		r.Workers = 16
	}
	return r, nil
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	req, err := decode[OptimizeRequest](r)
	if err != nil {
		writeErr(w, err)
		return
	}
	req, err = req.normalize()
	if err != nil {
		writeErr(w, badRequest(err))
		return
	}
	p, err := core.NewPlatform(req.Platform)
	if err != nil {
		writeErr(w, badRequest(err))
		return
	}
	// Workers is deliberately NOT part of the cache key: the search result is
	// bit-identical for every worker count (a determinism property pinned by
	// the cpsolve and core test suites), so a hit computed at workers=1 is
	// exactly the answer a workers=8 request would have produced.
	key := requestKey("optimize", platformFingerprint(p), req.Algorithm,
		strconv.Itoa(req.Tiles), strconv.Itoa(req.NodeBudget))
	v, hit, err := s.cached(r.Context(), "/v1/optimize", key, func() (any, error) {
		d, err := core.DAGByAlgorithm(req.Algorithm, req.Tiles)
		if err != nil {
			return nil, badRequest(err)
		}
		if err := p.Validate(d.Kinds()); err != nil {
			return nil, badRequest(fmt.Errorf("service: platform %q cannot run %s: %w", req.Platform, req.Algorithm, err))
		}
		fl, err := core.FlopsByAlgorithm(req.Algorithm, req.Tiles*platform.TileNB)
		if err != nil {
			return nil, badRequest(err)
		}
		ring := obs.NewFrameRing(s.cfg.FrameRing)
		runID := s.ledger.Open(&RunEntry{
			Kind:      KindOptimize,
			CreatedAt: time.Now(),
			Request:   SimulateRequest{Platform: req.Platform, Algorithm: req.Algorithm, Tiles: req.Tiles},
			Frames:    ring,
		})
		span := obs.StartSpan(obs.PhaseSolve, s.observePhase)
		res, err := core.OptimizeDAGProbed(r.Context(), d, p, req.NodeBudget, req.Workers,
			obs.NewProbe(0, s.frameSink(ring)))
		span.End()
		if err != nil {
			s.ledger.Fail(runID, err)
			return nil, err
		}
		resp := &OptimizeResponse{
			Platform:    req.Platform,
			Algorithm:   req.Algorithm,
			Tiles:       req.Tiles,
			MatrixSize:  req.Tiles * platform.TileNB,
			MakespanSec: res.Makespan,
			GFlops:      platform.GFlops(fl, res.Makespan),
			Nodes:       res.Nodes,
			Exhausted:   res.Exhausted,
			RunID:       runID,
		}
		s.ledger.Complete(runID, func(e *RunEntry) { e.Optimize = resp })
		return resp, nil
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, v, hit)
}

// ---------------------------------------------------------------------------
// /v1/sweep

// SweepRequest evaluates the cross product tiles × schedulers in one call —
// the "various matrix sizes or schedulers" workflow the paper runs in
// parallel. Cells share the /v1/simulate cache, so a sweep both benefits
// from and warms the per-simulation entries.
type SweepRequest struct {
	Platform   string   `json:"platform"`
	Schedulers []string `json:"schedulers"`
	Tiles      []int    `json:"tiles"`
	Algorithm  string   `json:"algorithm,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	// Batch is accepted for compatibility and ignored: every sweep runs
	// its cache misses through the batched replay engine. Older clients
	// send it, and the strict decoder would otherwise reject them.
	Batch bool `json:"batch,omitempty"`
}

// SweepResponse is the row-major result grid: Results[i][j] is tiles[i]
// under schedulers[j].
type SweepResponse struct {
	Platform   string                `json:"platform"`
	Schedulers []string              `json:"schedulers"`
	Tiles      []int                 `json:"tiles"`
	Results    [][]*SimulateResponse `json:"results"`
	// RunID names the sweep's own ledger entry: `GET /v1/runs/{id}/live`
	// streams the batch's progress — completed cells and dedup hits — while
	// the sweep runs.
	RunID string `json:"run_id,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, err := decode[SweepRequest](r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if len(req.Schedulers) == 0 || len(req.Tiles) == 0 {
		writeErr(w, badRequest(fmt.Errorf("service: sweep needs at least one scheduler and one tile count")))
		return
	}
	if len(req.Schedulers)*len(req.Tiles) > 1024 {
		writeErr(w, badRequest(fmt.Errorf("service: sweep of %d cells exceeds the 1024-cell limit",
			len(req.Schedulers)*len(req.Tiles))))
		return
	}
	p, err := core.NewPlatform(req.Platform)
	if err != nil {
		writeErr(w, badRequest(err))
		return
	}
	fp := platformFingerprint(p)

	ctx := r.Context()
	// The sweep holds one admission slot and fans its cache misses out over
	// the worker budget through the replay engine.
	var flat []*SimulateResponse
	var runID string
	err = s.pool.Do(ctx, func() error {
		span := obs.StartSpan(obs.PhaseSweep, s.observePhase)
		defer span.End()
		var serr error
		flat, runID, serr = s.sweepCells(ctx, req, p, fp)
		return serr
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	resp := &SweepResponse{Platform: req.Platform, Schedulers: req.Schedulers, Tiles: req.Tiles, RunID: runID}
	resp.Results = make([][]*SimulateResponse, len(req.Tiles))
	for i := range resp.Results {
		resp.Results[i] = flat[i*len(req.Schedulers) : (i+1)*len(req.Schedulers)]
	}
	writeJSON(w, resp, false)
}

// sweepCells computes a sweep's cache misses through the batched replay
// engine: cells sharing a tile count share one simulator preparation, DAG
// and mixed-bound solve, and per-run simulator state is recycled from the
// server's arena pool. Each cell's response is bit-identical to what
// /v1/simulate returns for the same request (modulo run_id) — the
// internal/replay equivalence suite enforces the contract. Singleflight is
// deliberately skipped: the batch already deduplicates within the request,
// and a concurrent identical sweep racing past the cache at worst recomputes
// a cell; it cannot produce a different answer.
func (s *Server) sweepCells(ctx context.Context, req SweepRequest, p *platform.Platform, fp string) ([]*SimulateResponse, string, error) {
	// Resolve every scheduler name up front — replay.Job factories cannot
	// return errors, and a bad name should fail the whole request as 400.
	insts := make([]sched.Scheduler, len(req.Schedulers))
	for i, name := range req.Schedulers {
		inst, err := core.NewScheduler(name)
		if err != nil {
			return nil, "", badRequest(err)
		}
		insts[i] = inst
	}
	nCols := len(req.Schedulers)
	flat := make([]*SimulateResponse, len(req.Tiles)*nCols)

	// One group per distinct tile count: the DAG, flop total and mixed bound
	// are shared by all that tile count's cells instead of recomputed per cell.
	type group struct {
		d     *graph.DAG
		flops float64
		bound float64 // mixed-bound GFLOP/s ceiling
		nb    int
	}
	groups := make(map[int]*group)
	type miss struct {
		idx  int // position in flat
		creq SimulateRequest
		key  string
		g    *group
		si   int
	}
	var misses []miss
	for ti, tiles := range req.Tiles {
		for si := range req.Schedulers {
			cr := SimulateRequest{
				Platform: req.Platform, Scheduler: req.Schedulers[si],
				Algorithm: req.Algorithm, Tiles: tiles, Seed: req.Seed,
			}
			cr, err := cr.normalize()
			if err != nil {
				return nil, "", badRequest(err)
			}
			key := cr.key(fp)
			if v, ok := s.cache.Get(key); ok {
				s.metrics.CounterAdd("cholserved_cache_hits_total",
					"Requests served from the result cache.", Labels{"endpoint": "/v1/sweep"}, 1)
				flat[ti*nCols+si] = v.(*SimulateResponse)
				continue
			}
			s.metrics.CounterAdd("cholserved_cache_misses_total",
				"Requests that had to compute their result.", Labels{"endpoint": "/v1/sweep"}, 1)
			g, ok := groups[tiles]
			if !ok {
				d, err := core.DAGByAlgorithm(cr.Algorithm, tiles)
				if err != nil {
					return nil, "", badRequest(err)
				}
				if err := p.Validate(d.Kinds()); err != nil {
					return nil, "", badRequest(fmt.Errorf("service: platform %q cannot run %s: %w", req.Platform, cr.Algorithm, err))
				}
				nb := p.DefaultNB()
				fl, err := core.FlopsByAlgorithm(cr.Algorithm, tiles*nb)
				if err != nil {
					return nil, "", badRequest(err)
				}
				m, err := bounds.MixedInt(d, p)
				if err != nil {
					return nil, "", err
				}
				g = &group{d: d, flops: fl, bound: m.GFlops(fl), nb: nb}
				groups[tiles] = g
			}
			misses = append(misses, miss{idx: ti*nCols + si, creq: cr, key: key, g: g, si: si})
		}
	}
	jobs := make([]replay.Job, len(misses))
	for i, m := range misses {
		name := req.Schedulers[m.si]
		jobs[i] = replay.Job{
			D: m.g.d, P: p,
			Sched: func() sched.Scheduler { inst, _ := core.NewScheduler(name); return inst },
			Opt:   simulator.Options{Seed: m.creq.Seed},
		}
	}
	// The batch gets its own ledger entry: one live stream for the whole
	// sweep (completed cells, dedup hits), opened before the replay engine
	// runs so subscribers can watch it in flight.
	ring := obs.NewFrameRing(s.cfg.FrameRing)
	runID := s.ledger.Open(&RunEntry{
		Kind:      KindSweep,
		CreatedAt: time.Now(),
		Request:   SimulateRequest{Platform: req.Platform, Algorithm: req.Algorithm, Seed: req.Seed},
		Frames:    ring,
	})
	rs, err := replay.Run(ctx, jobs, s.cfg.Workers, &s.replayPool, obs.NewProbe(1, s.frameSink(ring)))
	if err != nil {
		s.ledger.Fail(runID, err)
		return nil, "", err
	}
	for i, m := range misses {
		r := rs[i]
		if err := simulator.Validate(m.g.d, p, r); err != nil {
			s.ledger.Fail(runID, fmt.Errorf("core: simulator produced an invalid schedule: %w", err))
			return nil, "", fmt.Errorf("core: simulator produced an invalid schedule: %w", err)
		}
		gf := r.GFlops(m.g.flops)
		resp := &SimulateResponse{
			Platform:      req.Platform,
			Scheduler:     insts[m.si].Name(),
			Algorithm:     m.creq.Algorithm,
			Tiles:         m.creq.Tiles,
			MatrixSize:    m.creq.Tiles * m.g.nb,
			MakespanSec:   r.MakespanSec,
			GFlops:        gf,
			BoundGFlops:   m.g.bound,
			TransferSec:   r.TransferSec,
			TransferCount: r.TransferCount,
			Evictions:     r.Evictions,
			Writebacks:    r.Writebacks,
			StallSec:      r.StallSec,
		}
		if resp.BoundGFlops > 0 {
			resp.Efficiency = gf / resp.BoundGFlops
		}
		resp.RunID = s.ledger.Add(&RunEntry{
			CreatedAt: time.Now(),
			Request:   m.creq,
			Response:  resp,
			Result:    r,
		})
		s.cache.Put(m.key, resp)
		flat[m.idx] = resp
	}
	s.ledger.Complete(runID, nil)
	return flat, runID, nil
}

// ---------------------------------------------------------------------------
// /v1/experiments

// ExperimentInfo is one catalogue entry.
type ExperimentInfo struct {
	ID          string `json:"id"`
	Description string `json:"description"`
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	var list []ExperimentInfo
	for _, e := range experiments.Registry() {
		list = append(list, ExperimentInfo{ID: e.ID, Description: e.Description})
	}
	writeJSON(w, list, false)
}

// ExperimentResponse is one regenerated paper artifact.
type ExperimentResponse struct {
	ID     string `json:"id"`
	Output string `json:"output"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	cfg := experiments.Quick()
	if q.Get("full") == "1" {
		cfg = experiments.Default()
	}
	if v := q.Get("sizes"); v != "" {
		cfg.Sizes = nil
		for _, part := range strings.Split(v, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				writeErr(w, badRequest(fmt.Errorf("service: bad sizes entry %q", part)))
				return
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}
	if v := q.Get("runs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, badRequest(fmt.Errorf("service: bad runs %q", v)))
			return
		}
		cfg.Runs = n
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeErr(w, badRequest(fmt.Errorf("service: bad seed %q", v)))
			return
		}
		cfg.Seed = n
	}
	key := requestKey("experiment", id, q.Get("full"), q.Get("sizes"),
		strconv.Itoa(cfg.Runs), strconv.FormatInt(cfg.Seed, 10))
	v, hit, err := s.cached(r.Context(), "/v1/experiments/{id}", key, func() (any, error) {
		text, err := core.RunExperiment(r.Context(), id, cfg)
		if err != nil {
			if strings.Contains(err.Error(), "unknown experiment") {
				return nil, badRequest(err)
			}
			return nil, err
		}
		return &ExperimentResponse{ID: id, Output: text}, nil
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, v, hit)
}

// ---------------------------------------------------------------------------
// Registry catalogues

// RegistryEntry is one platform or scheduler constructor as exposed over
// the API.
type RegistryEntry struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	var list []RegistryEntry
	for _, e := range core.Platforms() {
		list = append(list, RegistryEntry{Name: e.Display(), Description: e.Description})
	}
	writeJSON(w, list, false)
}

func (s *Server) handleSchedulers(w http.ResponseWriter, r *http.Request) {
	var list []RegistryEntry
	for _, e := range core.Schedulers() {
		list = append(list, RegistryEntry{Name: e.Display(), Description: e.Description})
	}
	writeJSON(w, list, false)
}
