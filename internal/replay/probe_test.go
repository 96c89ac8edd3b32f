package replay_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/simulator"
)

// TestRunProbedBatchProgress checks the batch-level frame stream: monotone
// Done reaching the job count, dedup hits reported, and results identical
// to the unprobed path. The jittered random jobs spread over concurrent lane
// shards, so one probe is fed from several goroutines at once.
func TestRunProbedBatchProgress(t *testing.T) {
	d := graph.Cholesky(8)
	p := platform.Mirage()
	mk := func() sched.Scheduler { return sched.NewDMDAS() } // seed-invariant: dedups
	mkRandom := func() sched.Scheduler { return sched.NewRandom() }
	var jobs []replay.Job
	for seed := int64(0); seed < 8; seed++ {
		jobs = append(jobs, replay.Job{D: d, P: p, Sched: mk, Opt: simulator.Options{Seed: seed}},
			replay.Job{D: d, P: p, Sched: mkRandom, Opt: simulator.Options{Seed: seed, Overhead: true}})
	}
	plain, err := replay.Run(context.Background(), jobs, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var frames []obs.Frame
	probe := obs.NewProbe(1, func(f obs.Frame) {
		mu.Lock()
		frames = append(frames, f.Clone())
		mu.Unlock()
	})
	probed, err := replay.Run(context.Background(), jobs, 4, nil, probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if replay.Digest(plain[i]) != replay.Digest(probed[i]) {
			t.Fatalf("job %d digest changed under batch probing", i)
		}
	}
	if len(frames) == 0 {
		t.Fatal("no batch frames emitted")
	}
	for i, f := range frames {
		if f.Source != obs.SourceReplay {
			t.Fatalf("frame %d source %q", i, f.Source)
		}
		if i > 0 && f.Done < frames[i-1].Done {
			t.Fatalf("Done regressed at frame %d: %d after %d", i, f.Done, frames[i-1].Done)
		}
	}
	last := frames[len(frames)-1]
	if !last.Final || last.Done != int64(len(jobs)) || last.Total != int64(len(jobs)) {
		t.Fatalf("final frame %+v, want Final %d/%d", last, len(jobs), len(jobs))
	}
	// All 8 dmdas seeds collapse to one lane: 7 dedup hits. Every random
	// seed genuinely simulates.
	if last.DedupHits != 7 {
		t.Fatalf("DedupHits = %d, want 7", last.DedupHits)
	}
}

// TestPerJobProbeForcesOwnLane: a job carrying its own Options.Probe must
// genuinely simulate (emitting simulator frames) rather than be answered
// with a dedup clone.
func TestPerJobProbeForcesOwnLane(t *testing.T) {
	d := graph.Cholesky(8)
	p := platform.Mirage()
	mk := func() sched.Scheduler { return sched.NewDMDAS() }
	var mu sync.Mutex
	perJob := make([]int, 3)
	var jobs []replay.Job
	for i := 0; i < 3; i++ {
		i := i
		probe := obs.NewProbe(8, func(obs.Frame) {
			mu.Lock()
			perJob[i]++
			mu.Unlock()
		})
		jobs = append(jobs, replay.Job{D: d, P: p, Sched: mk,
			Opt: simulator.Options{Seed: int64(i), Probe: probe}})
	}
	rs, err := replay.Run(context.Background(), jobs, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range perJob {
		if n == 0 {
			t.Fatalf("job %d emitted no simulator frames — dedup swallowed a probed job", i)
		}
		if rs[i] == nil {
			t.Fatalf("job %d missing result", i)
		}
	}
}

// TestDeltaStatsAndFrames pins the Base outcome counters and their frames:
// a seed-only no-divergence query clones, a panel-knob query resumes, and a
// scheduler-swap query falls back to scratch.
func TestDeltaStatsAndFrames(t *testing.T) {
	d := graph.Cholesky(8)
	p := platform.Mirage()
	ctx := context.Background()
	base, err := replay.Record(ctx, d, p, sched.NewDMDAS(), simulator.Options{Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var frames []obs.Frame
	base.Probe = obs.NewProbe(1, func(f obs.Frame) { frames = append(frames, f.Clone()) })
	mk := func() sched.Scheduler { return sched.NewDMDAS() }

	if _, err := base.Delta(ctx, mk, simulator.Options{Seed: 2}, replay.SeedKnob(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Delta(ctx, mk, simulator.Options{Seed: 1}, replay.PanelKnob(6), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Delta(ctx, func() sched.Scheduler { return sched.NewRandom() },
		simulator.Options{Seed: 1}, replay.FullKnob(), nil); err != nil {
		t.Fatal(err)
	}

	clones, resumes, scratch := base.DeltaStats()
	if clones != 1 || resumes != 1 || scratch != 1 {
		t.Fatalf("DeltaStats = %d/%d/%d, want 1/1/1", clones, resumes, scratch)
	}
	if len(frames) != 3 {
		t.Fatalf("expected one frame per Delta query, got %d", len(frames))
	}
	last := frames[2]
	if last.Done != 3 || last.DedupHits != 1 || last.DeltaResume != 1 || last.DeltaScratch != 1 {
		t.Fatalf("final delta frame %+v, want totals 3/1/1/1", last)
	}
	for i := 1; i < len(frames); i++ {
		if frames[i].Done != frames[i-1].Done+1 {
			t.Fatalf("delta frame Done not consecutive: %+v", frames)
		}
	}
}
