package simulator

// Footprint approximates the arena's retained backing memory in bytes: every
// dense per-run array, queue ring, event heap and residency list it would
// reuse on the next run. replay.Pool keys its high-water trimming on it.
func (a *Arena) Footprint() int {
	st := &a.st
	b := 8 * (cap(st.workerFree) + cap(st.estFree) + cap(st.dataReady) + cap(st.linkFree) + cap(st.jitU))
	b += cap(st.executing) + cap(st.workerDirty) + cap(st.doneTask) + cap(st.loc)
	b += 4 * (cap(st.locCount) + cap(st.pins) + cap(st.residentPos) + cap(st.indeg) + cap(st.decTrace) + cap(st.startTrace))
	b += 8 * cap(st.lastUse)
	b += 32 * cap(st.events) // sizeof(event)
	for w := range st.queues {
		b += 24 * cap(st.queues[w].items) // sizeof(queueEntry)
	}
	b += 24 * cap(st.queues)
	for node := range st.residentTiles {
		b += 4 * cap(st.residentTiles[node])
	}
	return b
}

// Release drops every retained backing array, returning the arena to its
// zero state. The arena stays valid — the next run re-allocates exactly what
// that run needs, which is the point: after one oversized run, a pooled
// arena would otherwise pin the high-water allocation forever.
func (a *Arena) Release() {
	a.st = state{}
}
