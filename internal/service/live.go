package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// GET /v1/runs/{id}/live streams a run's progress frames as Server-Sent
// Events. The stream replays the buffered backlog first (honouring
// Last-Event-ID on reconnect, so a dropped client resumes where it left
// off), then follows the run live, interleaving comment heartbeats so
// proxies and clients can detect a stalled connection. When the run
// completes, fails, or ages out of the bounded ledger, a terminal `done`
// event carries the final status and the stream ends.
//
// The SSE wire format is produced by the pure appendSSE* encoders below so
// the framing is testable byte-for-byte without a network in the loop.

// appendSSEFrame encodes one progress frame as an SSE event: the frame
// sequence number becomes the event ID (what a reconnecting client echoes
// back in Last-Event-ID), the event name is "frame", and the data line is
// the frame's JSON.
func appendSSEFrame(b []byte, f obs.Frame) ([]byte, error) {
	data, err := json.Marshal(f)
	if err != nil {
		return b, err
	}
	b = append(b, "id: "...)
	b = strconv.AppendUint(b, f.Seq, 10)
	b = append(b, "\nevent: frame\ndata: "...)
	b = append(b, data...)
	b = append(b, '\n', '\n')
	return b, nil
}

// appendSSEHeartbeat encodes the keep-alive comment (invisible to
// EventSource clients, but keeps the connection from idling out).
func appendSSEHeartbeat(b []byte) []byte {
	return append(b, ": heartbeat\n\n"...)
}

// appendSSEDone encodes the terminal event carrying the run's final status
// (done | failed | evicted).
func appendSSEDone(b []byte, status string) []byte {
	b = append(b, "event: done\ndata: {\"status\":"...)
	b = strconv.AppendQuote(b, status)
	b = append(b, '}', '\n', '\n')
	return b
}

// lastEventID extracts the resume point of a reconnecting SSE client: the
// standard Last-Event-ID header, with an `after` query parameter as the
// curl-friendly fallback. Zero (stream from the start) when absent or
// malformed.
func lastEventID(r *http.Request) uint64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("after")
	}
	if v == "" {
		return 0
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// instrumentStream wraps a streaming handler with the request counter only:
// no per-request timeout (a live stream legitimately outlives
// RequestTimeout; StreamTimeout bounds it instead) and no latency histogram
// (stream lifetime is connection policy, not evaluation latency).
func (s *Server) instrumentStream(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.metrics.CounterAdd("cholserved_requests_total",
			"Requests served, by endpoint and status code.",
			Labels{"endpoint": endpoint, "code": strconv.Itoa(sw.status)}, 1)
	}
}

func (s *Server) handleRunLive(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.ledger.Get(id)
	if !ok {
		writeErr(w, notFound(fmt.Errorf("service: run %q not in the ledger (bounded to %d entries)", id, s.cfg.LedgerSize)))
		return
	}
	if e.Frames == nil {
		writeErr(w, notFound(fmt.Errorf("service: run %q has no live stream (batched-sweep cells stream through their parent sweep run)", id)))
		return
	}
	// ResponseController reaches the connection's Flusher through the
	// statusWriter instrumentation wrappers (via their Unwrap methods).
	rc := http.NewResponseController(w)

	backlog, live, cancel := e.Frames.Subscribe(lastEventID(r))
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	var buf []byte
	for _, f := range backlog {
		var err error
		if buf, err = appendSSEFrame(buf, f); err != nil {
			return
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return
		}
	}
	rc.Flush()

	finish := func() {
		status := "evicted" // aged out of the bounded ledger mid-stream
		if cur, ok := s.ledger.Get(id); ok && cur.Status != StatusRunning {
			status = cur.Status
		}
		w.Write(appendSSEDone(nil, status))
		rc.Flush()
	}
	// No early exit for a closed ring: frames published between Subscribe
	// and here sit in the live channel, and a ring closed at Subscribe time
	// hands back a closed channel, so the loop below drains, then finishes.

	heartbeat := time.NewTicker(s.cfg.Heartbeat)
	defer heartbeat.Stop()
	deadline := time.NewTimer(s.cfg.StreamTimeout)
	defer deadline.Stop()

	for {
		select {
		case f, open := <-live:
			if !open {
				finish()
				return
			}
			buf, err := appendSSEFrame(buf[:0], f)
			if err != nil {
				return
			}
			if _, err := w.Write(buf); err != nil {
				return
			}
			rc.Flush()
		case <-heartbeat.C:
			if _, err := w.Write(appendSSEHeartbeat(nil)); err != nil {
				return
			}
			rc.Flush()
		case <-deadline.C:
			// Bound the stream's lifetime; the client reconnects with
			// Last-Event-ID and resumes from the ring backlog.
			return
		case <-r.Context().Done():
			return
		}
	}
}
