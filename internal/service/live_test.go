package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSSEEncoders pins the SSE wire format byte-for-byte: the frame event
// (id/event/data lines), the heartbeat comment, and the terminal done event.
func TestSSEEncoders(t *testing.T) {
	f := obs.Frame{Source: obs.SourceSimulate, Seq: 7, Done: 64, Total: 120,
		SimSec: 1.5, ReadyDepth: 3, BusySec: []float64{0.5, 1}}
	b, err := appendSSEFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	want := "id: 7\nevent: frame\ndata: " +
		`{"source":"simulate","seq":7,"done":64,"total":120,"sim_sec":1.5,"ready_depth":3,"busy_sec":[0.5,1]}` +
		"\n\n"
	if string(b) != want {
		t.Fatalf("frame event:\n%q\nwant:\n%q", b, want)
	}
	if got := string(appendSSEHeartbeat(nil)); got != ": heartbeat\n\n" {
		t.Fatalf("heartbeat = %q", got)
	}
	if got := string(appendSSEDone(nil, "done")); got != "event: done\ndata: {\"status\":\"done\"}\n\n" {
		t.Fatalf("done event = %q", got)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id, event, data string
	comment         bool
}

// readSSE parses a complete SSE stream into its events (comments included).
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	flush := func() {
		if cur != (sseEvent{}) {
			out = append(out, cur)
			cur = sseEvent{}
		}
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			flush()
		case strings.HasPrefix(line, ": "):
			cur.comment = true
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		default:
			t.Fatalf("unparseable SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	flush()
	return out
}

// frameEvents decodes the frame events of a stream, failing on malformed data.
func frameEvents(t *testing.T, events []sseEvent) []obs.Frame {
	t.Helper()
	var frames []obs.Frame
	for _, ev := range events {
		if ev.event != "frame" {
			continue
		}
		var f obs.Frame
		if err := json.Unmarshal([]byte(ev.data), &f); err != nil {
			t.Fatalf("bad frame data %q: %v", ev.data, err)
		}
		frames = append(frames, f)
	}
	return frames
}

// TestRunLiveStream is the live-endpoint acceptance path: a completed
// simulate run replays its frame backlog in order, ends with the terminal
// done event, and honours Last-Event-ID on reconnect.
func TestRunLiveStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Platform: "mirage", Scheduler: "dmdas", Tiles: 12,
	})
	sim := decodeBody[SimulateResponse](t, resp)
	if sim.RunID == "" {
		t.Fatal("simulate response missing run_id")
	}

	live, err := http.Get(ts.URL + "/v1/runs/" + sim.RunID + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer live.Body.Close()
	if ct := live.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	events := readSSE(t, live.Body)
	frames := frameEvents(t, events)
	if len(frames) == 0 {
		t.Fatal("no frame events in the live stream")
	}
	for i, f := range frames {
		if f.Source != obs.SourceSimulate {
			t.Fatalf("frame %d source %q", i, f.Source)
		}
		if i > 0 && (f.Seq <= frames[i-1].Seq || f.Done < frames[i-1].Done) {
			t.Fatalf("frame %d not monotone: %+v after %+v", i, f, frames[i-1])
		}
	}
	final := frames[len(frames)-1]
	if !final.Final || final.Done != final.Total {
		t.Fatalf("final frame %+v, want Final at Done==Total", final)
	}
	last := events[len(events)-1]
	if last.event != "done" || last.data != `{"status":"done"}` {
		t.Fatalf("terminal event %+v, want done/done", last)
	}

	// Reconnect mid-stream: everything at or before Last-Event-ID is not
	// replayed.
	cut := frames[0].Seq
	req, _ := http.NewRequest("GET", ts.URL+"/v1/runs/"+sim.RunID+"/live", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(cut))
	re, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Body.Close()
	rframes := frameEvents(t, readSSE(t, re.Body))
	if len(rframes) != len(frames)-1 {
		t.Fatalf("reconnect replayed %d frames, want %d", len(rframes), len(frames)-1)
	}
	if len(rframes) > 0 && rframes[0].Seq <= cut {
		t.Fatalf("reconnect replayed frame %d at or before Last-Event-ID %d", rframes[0].Seq, cut)
	}

	// Unknown runs and runs without a stream 404.
	if r, err := http.Get(ts.URL + "/v1/runs/run-999999/live"); err != nil {
		t.Fatal(err)
	} else if r.StatusCode != http.StatusNotFound {
		t.Fatalf("missing run live status %d", r.StatusCode)
	} else {
		r.Body.Close()
	}
}

// TestRunLiveFollowsRunInFlight subscribes while the run is still open and
// receives frames as they are published, heartbeats while idle, and the
// done event when the run completes — the streaming path rather than the
// backlog-replay path, exercised concurrently by several subscribers (the
// -race half of the framing suite).
func TestRunLiveFollowsRunInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Heartbeat: 20 * time.Millisecond})
	ring := obs.NewFrameRing(64)
	id := s.Ledger().Open(&RunEntry{
		Kind:      KindSimulate,
		CreatedAt: time.Now(),
		Request:   SimulateRequest{Platform: "mirage", Scheduler: "dmdas", Tiles: 4},
		Frames:    ring,
	})

	const subscribers = 4
	const total = 50
	var wg sync.WaitGroup
	bodies := make([][]byte, subscribers)
	errs := make([]error, subscribers)
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/live")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}

	probe := obs.NewProbe(1, ring.Publish)
	for n := 1; n <= total; n++ {
		probe.Emit(obs.Frame{Source: obs.SourceSimulate, Done: int64(n), Total: total, Final: n == total})
		if n%10 == 0 {
			time.Sleep(time.Millisecond) // let heartbeats interleave
		}
	}
	s.Ledger().Complete(id, nil)
	wg.Wait()

	for i := 0; i < subscribers; i++ {
		if errs[i] != nil {
			t.Fatalf("subscriber %d: %v", i, errs[i])
		}
		stream := readSSE(t, strings.NewReader(string(bodies[i])))
		frames := frameEvents(t, stream)
		if len(frames) == 0 {
			t.Fatalf("subscriber %d saw no frames", i)
		}
		for j := 1; j < len(frames); j++ {
			if frames[j].Seq <= frames[j-1].Seq {
				t.Fatalf("subscriber %d frame order broken: %+v after %+v", i, frames[j], frames[j-1])
			}
		}
		if last := frames[len(frames)-1]; !last.Final || last.Done != total {
			t.Fatalf("subscriber %d final frame %+v", i, last)
		}
		if term := stream[len(stream)-1]; term.event != "done" {
			t.Fatalf("subscriber %d terminal event %+v", i, term)
		}
	}
}

// closingWriter is an SSE response recorder that runs onFirstWrite once,
// from inside the handler's first Write.
type closingWriter struct {
	*httptest.ResponseRecorder
	onFirstWrite func()
}

func (w *closingWriter) Write(b []byte) (int, error) {
	if f := w.onFirstWrite; f != nil {
		w.onFirstWrite = nil
		f()
	}
	return w.ResponseRecorder.Write(b)
}

// TestRunLiveDrainsRunClosedAfterSubscribe is the drain-race regression: a
// run that publishes its last frames and closes after the stream subscribed
// but before the stream's first receive must still deliver every frame,
// then done. The handler's backlog write is the point between the two, so
// the writer publishes and completes the run from inside it.
func TestRunLiveDrainsRunClosedAfterSubscribe(t *testing.T) {
	s := New(Config{Workers: 1})
	ring := obs.NewFrameRing(64)
	id := s.Ledger().Open(&RunEntry{
		Kind:      KindSimulate,
		CreatedAt: time.Now(),
		Request:   SimulateRequest{Platform: "mirage", Scheduler: "dmdas", Tiles: 4},
		Frames:    ring,
	})
	const backlog, total = 30, 50
	probe := obs.NewProbe(1, ring.Publish)
	emit := func(from, to int) {
		for n := from; n <= to; n++ {
			probe.Emit(obs.Frame{Source: obs.SourceSimulate, Done: int64(n), Total: total, Final: n == total})
		}
	}
	emit(1, backlog)
	w := &closingWriter{ResponseRecorder: httptest.NewRecorder(), onFirstWrite: func() {
		emit(backlog+1, total)
		s.Ledger().Complete(id, nil)
	}}
	req := httptest.NewRequest(http.MethodGet, "/v1/runs/"+id+"/live", nil)
	req.SetPathValue("id", id)
	s.handleRunLive(w, req)

	stream := readSSE(t, bytes.NewReader(w.Body.Bytes()))
	frames := frameEvents(t, stream)
	if len(frames) != total {
		t.Fatalf("stream carried %d frames, want %d", len(frames), total)
	}
	for i, f := range frames {
		if f.Done != int64(i+1) {
			t.Fatalf("frame %d has Done %d, want %d", i, f.Done, i+1)
		}
	}
	if term := stream[len(stream)-1]; term.event != "done" || term.data != `{"status":"done"}` {
		t.Fatalf("terminal event %+v, want done/done", term)
	}
}

// TestPhaseHistogramsAndProbeCounters asserts the observability surface on
// /metrics after one of each job kind: per-phase wall-clock histograms with
// non-zero counts and the per-source probe frame counters.
func TestPhaseHistogramsAndProbeCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Platform: "mirage", Scheduler: "dmdas", Tiles: 8, Record: true,
	}).Body.Close()
	postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{
		Platform: "mirage", Tiles: 4, NodeBudget: 4000,
	}).Body.Close()
	postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Platform: "mirage", Schedulers: []string{"dmda", "random"}, Tiles: []int{6},
	}).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, phase := range []string{obs.PhasePrep, obs.PhaseSimulate, obs.PhaseBounds, obs.PhaseSolve, obs.PhaseSweep} {
		marker := fmt.Sprintf(`cholserved_phase_seconds_count{phase=%q}`, phase)
		line := findLine(t, text, marker)
		if line == marker+" 0" {
			t.Fatalf("phase %q histogram has zero observations", phase)
		}
	}
	for _, source := range []string{obs.SourceSimulate, obs.SourceCPSolve, obs.SourceReplay} {
		marker := fmt.Sprintf(`cholserved_probe_frames_total{source=%q}`, source)
		findLine(t, text, marker)
	}
}

func findLine(t *testing.T, text, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("/metrics missing a %q line", prefix)
	return ""
}
