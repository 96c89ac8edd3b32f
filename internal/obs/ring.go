package obs

import "sync"

// subBuffer is the per-subscriber channel depth. A subscriber that falls
// further behind than this has frames dropped (never blocked on): sequence
// numbers stay monotonic across drops, and an SSE client can re-request the
// gap via Last-Event-ID replay.
const subBuffer = 64

// FrameRing is a bounded, concurrency-safe buffer of the most recent probe
// frames for one run, with fan-out to live subscribers. It backs the run
// ledger's per-run frame history and the /v1/runs/{id}/live SSE stream:
// Publish appends (evicting the oldest once capacity is reached) and
// notifies subscribers; Subscribe atomically returns the replay backlog
// after a given sequence number plus a channel for subsequent frames; Close
// marks the run finished and releases all subscribers.
type FrameRing struct {
	mu      sync.Mutex
	frames  []Frame // ring storage
	start   int     // index of the oldest retained frame
	n       int     // retained frame count
	closed  bool
	subs    map[int]chan Frame
	nextSub int
}

// NewFrameRing returns a ring retaining the last `capacity` frames
// (minimum 1).
func NewFrameRing(capacity int) *FrameRing {
	if capacity < 1 {
		capacity = 1
	}
	return &FrameRing{frames: make([]Frame, capacity), subs: make(map[int]chan Frame)}
}

// Publish retains a deep copy of f and delivers it to every subscriber.
// Slow subscribers lose frames rather than block the publisher. Publishing
// to a closed ring is a no-op.
func (r *FrameRing) Publish(f Frame) {
	c := f.Clone()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if r.n == len(r.frames) {
		r.frames[r.start] = c
		r.start = (r.start + 1) % len(r.frames)
	} else {
		r.frames[(r.start+r.n)%len(r.frames)] = c
		r.n++
	}
	for _, ch := range r.subs {
		select {
		case ch <- c:
		default: // subscriber too slow: drop, keep seq monotonic
		}
	}
}

// Close marks the run finished: retained frames stay readable, subscriber
// channels are closed, and future Publish/Subscribe see the closed state.
// Idempotent.
func (r *FrameRing) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for id, ch := range r.subs {
		close(ch)
		delete(r.subs, id)
	}
}

// Len returns the number of retained frames.
func (r *FrameRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Last returns the most recent frame, if any.
func (r *FrameRing) Last() (Frame, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return Frame{}, false
	}
	return r.frames[(r.start+r.n-1)%len(r.frames)], true
}

// Snapshot returns retained frames with Seq > afterSeq, oldest first. Pass
// 0 for the full backlog.
func (r *FrameRing) Snapshot(afterSeq uint64) []Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked(afterSeq)
}

func (r *FrameRing) snapshotLocked(afterSeq uint64) []Frame {
	var out []Frame
	for i := 0; i < r.n; i++ {
		f := r.frames[(r.start+i)%len(r.frames)]
		if f.Seq > afterSeq {
			out = append(out, f)
		}
	}
	return out
}

// Subscribe atomically snapshots the backlog after afterSeq and registers a
// live channel for frames published afterwards, so no frame between the two
// is lost. The channel is closed when the ring closes (run finished) or
// when cancel is called; cancel is idempotent and must be called to release
// the subscription. On an already-closed ring the returned channel is
// already closed.
func (r *FrameRing) Subscribe(afterSeq uint64) (backlog []Frame, live <-chan Frame, cancel func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	backlog = r.snapshotLocked(afterSeq)
	ch := make(chan Frame, subBuffer)
	if r.closed {
		close(ch)
		return backlog, ch, func() {}
	}
	id := r.nextSub
	r.nextSub++
	r.subs[id] = ch
	return backlog, ch, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.subs[id]; ok {
			delete(r.subs, id)
			close(ch)
		}
	}
}
