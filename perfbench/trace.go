package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the program itself is not instrumented).
// Spans of one operation share Op; Parent names the span that caused it.
type span struct {
	Pass   int    `json:"pass"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory; write dumps them once the run ends. A nil
// tracer records nothing, so untraced runs pay one pointer check per call.
type tracer struct {
	epoch time.Time
	pass  int // stamped on every span recorded from now on; set between passes
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// timed runs f and records it as span name of op under parent.
func (t *tracer) timed(op int, name, parent string, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Since(t.epoch)
	f()
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{Pass: t.pass, Op: op, Name: name, Parent: parent, Start: int64(start), End: int64(end)})
	t.mu.Unlock()
}

// perPass returns, for every pass that recorded spans, the summed seconds
// of the spans called name (0 for a pass without one).
func (t *tracer) perPass(name string) []float64 {
	if t == nil {
		return nil
	}
	byPass := map[int]float64{}
	for _, sp := range t.spans {
		if _, ok := byPass[sp.Pass]; !ok {
			byPass[sp.Pass] = 0
		}
		if sp.Name == name {
			byPass[sp.Pass] += sp.seconds()
		}
	}
	out := make([]float64, 0, len(byPass))
	for _, v := range byPass {
		out = append(out, v)
	}
	return out
}

// medianPass is the median over passes of the per-pass total of name.
func (t *tracer) medianPass(name string) float64 { return median(t.perPass(name)) }

// write stores the spans and the run facts as JSON under dir.
func (t *tracer) write(dir, file string, facts map[string]any) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"facts": facts, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}
