package replay

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simulator"
)

// TestLanesLazySplitResumes drives the snapshot-resume path directly: two
// lanes whose jitter rows agree on every draw except the batch's
// latest-starting task must lazily split — the follower resumes from a late
// snapshot of the representative instead of simulating from scratch — and
// its Result must still be bit-identical to a scratch run of the same row.
func TestLanesLazySplitResumes(t *testing.T) {
	d, p := graph.Cholesky(6), platform.Mirage()
	pp, err := simulator.Prepare(d, p)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() sched.Scheduler { return sched.NewDMDAS() }
	opt := simulator.Options{Overhead: true}

	// Find the task that starts last under the base row's schedule: the
	// follower diverges only there, so its reusable prefix is maximal.
	baseSerial, err := simulator.Run(d, p, mk(), simulator.Options{Seed: 1, Overhead: true})
	if err != nil {
		t.Fatal(err)
	}
	lastID := 0
	for id := range baseSerial.Start {
		if baseSerial.Start[id] > baseSerial.Start[lastID] {
			lastID = id
		}
	}

	n := len(d.Tasks)
	baseRow := make([]float64, n)
	simulator.JitterRow(1, baseRow)
	followRow := append([]float64(nil), baseRow...)
	followRow[lastID] = -followRow[lastID]
	if followRow[lastID] == 0 { //chollint:floateq guard a zero draw, which negation would not change
		followRow[lastID] = 0.5
	}

	specs := []laneSpec{
		{seed: 1, mk: mk, row: baseRow},
		{seed: 2, mk: mk, row: followRow},
	}
	run := func(lo laneOptions) ([]*simulator.Result, *laneStats) {
		t.Helper()
		sc := make([]laneSpec, len(specs))
		copy(sc, specs)
		stats := &laneStats{}
		res, err := runLanes(context.Background(), pp, opt, sc, 1, &Pool{}, lo, nil, stats)
		if err != nil {
			t.Fatal(err)
		}
		return res, stats
	}

	gotResume, statsResume := run(laneOptions{})
	gotScratch, statsScratch := run(laneOptions{NoResume: true, MergeStride: -1})
	if statsResume.Resumed == 0 {
		t.Fatalf("near-identical rows never resumed: %+v", statsResume)
	}
	if statsScratch.Resumed != 0 {
		t.Fatalf("NoResume run resumed anyway: %+v", statsScratch)
	}
	for i := range specs {
		if Digest(gotResume[i]) != Digest(gotScratch[i]) {
			t.Errorf("lane %d: resumed digest %016x, scratch %016x", i, Digest(gotResume[i]), Digest(gotScratch[i]))
		}
	}
	// The follower's schedule genuinely differs from the base's (the
	// perturbed draw is consumed), so resume did not just clone the base.
	if Digest(gotResume[0]) == Digest(gotResume[1]) {
		t.Fatal("perturbed follower produced the base schedule — the divergent draw was never consumed")
	}
}

// TestLanesRootDisagreementSkipsSnapshots: when no follower agrees with the
// representative on the root draws (the genuine-jitter regime), the
// lazy-split pre-pass must not run at all — no snapshot overhead, no
// resumes.
func TestLanesRootDisagreementSkipsSnapshots(t *testing.T) {
	d, p := graph.Cholesky(5), platform.Mirage()
	pp, err := simulator.Prepare(d, p)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() sched.Scheduler { return sched.NewDMDAS() }
	specs := make([]laneSpec, 4)
	n := len(d.Tasks)
	for i := range specs {
		row := make([]float64, n)
		simulator.JitterRow(int64(i+1), row)
		specs[i] = laneSpec{seed: int64(i + 1), mk: mk, row: row}
	}
	stats := &laneStats{}
	if _, err := runLanes(context.Background(), pp, simulator.Options{Overhead: true}, specs, 1, &Pool{}, laneOptions{}, nil, stats); err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 0 {
		t.Fatalf("independent jitter rows resumed from snapshots: %+v", stats)
	}
	if stats.Simulated != len(specs) {
		t.Fatalf("independent jitter rows did not all simulate: %+v", stats)
	}
}

// TestPoolTrimsOversizeArena is the arena-retention regression: an arena
// returned past the high-water cap is released to zero footprint, one under
// the cap keeps its backing for reuse.
func TestPoolTrimsOversizeArena(t *testing.T) {
	d, p := graph.Cholesky(6), platform.Mirage()
	pp, err := simulator.Prepare(d, p)
	if err != nil {
		t.Fatal(err)
	}
	grow := func(pool *Pool) *simulator.Arena {
		t.Helper()
		a := pool.Get()
		if _, err := pp.Run(context.Background(), sched.NewDMDAS(), simulator.Options{}, a); err != nil {
			t.Fatal(err)
		}
		return a
	}

	tiny := &Pool{ArenaCapBytes: 1}
	a := grow(tiny)
	if a.Footprint() == 0 {
		t.Fatal("run left the arena with zero footprint — trim test is vacuous")
	}
	tiny.Put(a)
	if got := tiny.free[0].Footprint(); got != 0 {
		t.Errorf("oversize arena pooled with footprint %d, want 0 (released)", got)
	}

	def := &Pool{}
	a = grow(def)
	def.Put(a)
	if got := def.free[0].Footprint(); got == 0 {
		t.Error("within-cap arena was trimmed — steady-state reuse lost")
	}
}

// TestPoolTrimsOversizeBatch mirrors the arena trim for lane batches.
func TestPoolTrimsOversizeBatch(t *testing.T) {
	d, p := graph.Cholesky(5), platform.Mirage()
	pp, err := simulator.Prepare(d, p)
	if err != nil {
		t.Fatal(err)
	}
	grow := func(pool *Pool) *simulator.LaneBatch {
		lb := pool.GetBatch()
		lb.Bind(pp, 4)
		return lb
	}

	tiny := &Pool{BatchCapBytes: 1}
	lb := grow(tiny)
	if lb.Footprint() == 0 {
		t.Fatal("bound batch has zero footprint — trim test is vacuous")
	}
	tiny.PutBatch(lb)
	if got := tiny.batches[0].Footprint(); got != 0 {
		t.Errorf("oversize batch pooled with footprint %d, want 0 (released)", got)
	}

	def := &Pool{}
	lb = grow(def)
	def.PutBatch(lb)
	if got := def.batches[0].Footprint(); got == 0 {
		t.Error("within-cap batch was trimmed — steady-state reuse lost")
	}
}

// TestPoolSteadyStateAllocs pins the point of pooling: with a warmed pool,
// a run over a recycled arena allocates strictly less than a run over a
// fresh arena, and the default caps never trim the steady-state workload
// (which would silently reintroduce the fresh-arena cost).
func TestPoolSteadyStateAllocs(t *testing.T) {
	d, p := graph.Cholesky(6), platform.Mirage()
	pp, err := simulator.Prepare(d, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := simulator.Options{Overhead: true}
	pool := &Pool{}
	a := pool.Get()
	if _, err := pp.Run(ctx, sched.NewDMDAS(), opt, a); err != nil {
		t.Fatal(err)
	}
	pool.Put(a)

	pooled := testing.AllocsPerRun(10, func() {
		a := pool.Get()
		if _, err := pp.Run(ctx, sched.NewDMDAS(), opt, a); err != nil {
			t.Fatal(err)
		}
		pool.Put(a)
	})
	fresh := testing.AllocsPerRun(10, func() {
		if _, err := pp.Run(ctx, sched.NewDMDAS(), opt, &simulator.Arena{}); err != nil {
			t.Fatal(err)
		}
	})
	if pooled >= fresh {
		t.Errorf("pooled path allocates %.0f/op, fresh %.0f/op — arena reuse lost", pooled, fresh)
	}
	if len(pool.free) != 1 || pool.free[0].Footprint() == 0 {
		t.Error("steady-state arena was trimmed under the default cap")
	}
}

// lanesOf runs one configuration across the seeds through the lane executor
// on one worker, as Run does for a group, and reports its stats.
func lanesOf(t *testing.T, d *graph.DAG, p *platform.Platform, mk func() sched.Scheduler, seeds []int64, opt simulator.Options, lo laneOptions, prog *progress) ([]*simulator.Result, *laneStats) {
	t.Helper()
	pp, err := simulator.Prepare(d, p)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]laneSpec, len(seeds))
	for i, s := range seeds {
		specs[i] = laneSpec{seed: s, mk: mk}
	}
	fillJitterRows(pp, p, opt, specs)
	stats := &laneStats{}
	res, err := runLanes(context.Background(), pp, opt, specs, 1, &Pool{}, lo, prog, stats)
	if err != nil {
		t.Fatal(err)
	}
	return res, stats
}

// laneSeeds returns a 32-seed batch with non-contiguous seeds, so no two
// jitter rows overlap by accident.
func laneSeeds() []int64 {
	seeds := make([]int64, 32)
	for i := range seeds {
		seeds[i] = int64(i*7 + 1)
	}
	return seeds
}

// TestLanesForceSplitMerges pins the mid-run merge machinery: with grouping
// disabled, provably identical lanes (jitter off, seed-invariant scheduler)
// must re-merge at the first digest boundary instead of simulating N times,
// every Result must still match serial, and the batch's final frame must
// count the merges.
func TestLanesForceSplitMerges(t *testing.T) {
	d, p := graph.Cholesky(6), platform.Mirage()
	mk := func() sched.Scheduler { return sched.NewDMDAS() }
	seeds := laneSeeds()
	var last obs.Frame
	prog := &progress{probe: obs.NewProbe(1, func(f obs.Frame) { last = f }), total: int64(len(seeds))}
	got, stats := lanesOf(t, d, p, mk, seeds, simulator.Options{}, laneOptions{ForceSplit: true, MergeStride: 8}, prog)
	prog.finish()
	want, err := simulator.Run(d, p, mk(), simulator.Options{Seed: seeds[0]})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if Digest(r) != Digest(want) {
			t.Errorf("seed %d: merged lane digest differs from serial", seeds[i])
		}
	}
	if stats.Merged == 0 {
		t.Fatalf("identical force-split lanes never merged: %+v", stats)
	}
	if stats.Merged != len(seeds)-stats.Simulated-stats.Resumed {
		t.Errorf("merge accounting off: %+v", stats)
	}
	if !last.Final || last.LaneMerges != int64(stats.Merged) || last.DedupHits != 0 {
		t.Errorf("final frame %+v, want LaneMerges=%d and no dedup hits", last, stats.Merged)
	}
}

// TestLanesMergedResultsIndependent: mid-run merged lanes are answered with
// clones — mutating one must not leak into its representative.
func TestLanesMergedResultsIndependent(t *testing.T) {
	d, p := graph.Cholesky(5), platform.Mirage()
	mk := func() sched.Scheduler { return sched.NewDMDAS() }
	got, stats := lanesOf(t, d, p, mk, []int64{1, 2, 3}, simulator.Options{}, laneOptions{ForceSplit: true, MergeStride: 4}, nil)
	if stats.Merged == 0 {
		t.Skipf("no merge fired at stride 4: %+v", stats)
	}
	got[2].MakespanSec = -1
	got[2].Start[0] = -1
	if Digest(got[0]) != Digest(got[1]) {
		t.Fatal("mutating a merged lane's Result leaked into another lane")
	}
}

// TestLanesProbeFrames checks the batch telemetry of a jitter group: a
// fine-cadence probe sees SourceReplay frames whose Done is monotone and
// whose final frame covers the whole batch, with no dedup hits (every seed
// draws its own row) — and the executor genuinely simulated.
func TestLanesProbeFrames(t *testing.T) {
	d, p := graph.Cholesky(6), platform.Mirage()
	mk := func() sched.Scheduler { return sched.NewDMDAS() }
	seeds := laneSeeds()
	opt := simulator.Options{Overhead: true}
	var frames []obs.Frame
	probe := obs.NewProbe(1, func(f obs.Frame) { frames = append(frames, f.Clone()) })
	if _, err := Seeds(context.Background(), d, p, mk, seeds, opt, 1, nil, probe); err != nil {
		t.Fatal(err)
	}
	if len(frames) < 2 {
		t.Fatalf("got %d frames, want per-lane progress plus a final frame", len(frames))
	}
	var prev int64 = -1
	for _, f := range frames {
		if f.Source != obs.SourceReplay {
			t.Fatalf("frame source %q, want %q", f.Source, obs.SourceReplay)
		}
		if f.Done < prev {
			t.Fatalf("frame Done went backwards: %d after %d", f.Done, prev)
		}
		prev = f.Done
	}
	last := frames[len(frames)-1]
	if !last.Final || last.Done != int64(len(seeds)) || last.Total != int64(len(seeds)) || last.DedupHits != 0 {
		t.Fatalf("final frame %+v, want Final with Done=Total=%d and no dedup hits", last, len(seeds))
	}
	if _, stats := lanesOf(t, d, p, mk, seeds, opt, laneOptions{}, nil); stats.Simulated == 0 {
		t.Fatalf("jitter batch simulated nothing: %+v", stats)
	}
}

// TestLanesRecorderFallsBackToRunLevel: a job with a Recorder is planned as
// a unit of one — it must genuinely simulate and record its own events —
// even where recorder-free jobs of the same configuration group.
func TestLanesRecorderFallsBackToRunLevel(t *testing.T) {
	d, p := graph.Cholesky(5), platform.Mirage()
	mk := func() sched.Scheduler { return sched.NewDMDAS() }
	recs := []*obs.Recorder{obs.NewRecorder(), obs.NewRecorder()}
	jobs := []Job{
		{D: d, P: p, Sched: mk, Opt: simulator.Options{Seed: 1, Recorder: recs[0]}},
		{D: d, P: p, Sched: mk, Opt: simulator.Options{Seed: 2}},
		{D: d, P: p, Sched: mk, Opt: simulator.Options{Seed: 3, Recorder: recs[1]}},
		{D: d, P: p, Sched: mk, Opt: simulator.Options{Seed: 4}},
	}
	units, err := plan(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var shapes [][]int
	for _, u := range units {
		shapes = append(shapes, u.jobs)
	}
	if len(units) != 3 || len(units[0].jobs) != 1 || len(units[1].jobs) != 2 || len(units[2].jobs) != 1 {
		t.Fatalf("plan %v, want [[0] [1 3] [2]]", shapes)
	}
	rs, err := Run(context.Background(), jobs, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rs); i++ {
		if Digest(rs[i]) != Digest(rs[0]) {
			t.Fatalf("job %d: seed-invariant digests differ", i)
		}
	}
	for i, r := range recs {
		if len(r.Decisions) != len(d.Tasks) {
			t.Errorf("recorder %d captured %d decisions, want %d", i, len(r.Decisions), len(d.Tasks))
		}
	}
}
