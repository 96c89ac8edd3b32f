package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// reproSizes is the pinned size list of the repro workload: the paper's
// 2..32 range cut to 2..12, which keeps fig11 the largest share of the
// pass as it is in `cholrepro -exp all`.
var reproSizes = []int{2, 4, 6, 8, 10, 12}

func reproConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.Sizes = append([]int(nil), reproSizes...)
	return cfg
}

// reproDigestsJSON holds the SHA-256 of every repro experiment's text
// output under reproConfig; regenerate with --print-digests when an
// experiment's output changes on purpose.
//
//go:embed repro_digests.json
var reproDigestsJSON []byte

func loadDigests(data []byte) (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("repro digests: %w", err)
	}
	for _, id := range reproIDs {
		if m[id] == "" {
			return nil, fmt.Errorf("repro digests: no reference for %q", id)
		}
	}
	return m, nil
}

func digest(text string) string {
	h := sha256.Sum256([]byte(text))
	return hex.EncodeToString(h[:])
}

// checkDigest reports whether an experiment's output matches its reference.
func checkDigest(refs map[string]string, id, text string) error {
	if got := digest(text); got != refs[id] {
		return fmt.Errorf("%s: output digest %s differs from reference %s", id, got[:12], refs[id][:12])
	}
	return nil
}

func printReproDigests() error {
	cfg := reproConfig()
	out := map[string]string{}
	for _, id := range reproIDs {
		r, err := experiments.Find(id)
		if err != nil {
			return err
		}
		text, _, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		out[id] = digest(text)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// replayCounts accumulates the final batch frames the replay engine emits
// through experiments.Config.Probe.
type replayCounts struct{ jobs, dedup, merges int64 }

func (c *replayCounts) sink(f obs.Frame) {
	if f.Final {
		c.jobs += f.Total
		c.dedup += f.DedupHits
		c.merges += f.LaneMerges
	}
}

// runRepro regenerates the pinned experiments in seeded order, one caller,
// pass after pass. A traced run alternates an untraced pass with a pass
// that attaches the replay probe and records one span per experiment.
func runRepro(e env) (*run, error) {
	type state struct {
		cfg     experiments.Config
		runners []experiments.Runner
		refs    map[string]string
	}
	st, setupS, err := timeSetup(setupReps, func() (state, error) {
		s := state{cfg: reproConfig()}
		for _, id := range reproOrder(e.seed) {
			r, err := experiments.Find(id)
			if err != nil {
				return s, err
			}
			s.runners = append(s.runners, r)
		}
		var err error
		if s.refs, err = loadDigests(reproDigestsJSON); err != nil {
			return s, err
		}
		// One small experiment pages in the DAG and LP code.
		warm, err := experiments.Find("fig2")
		if err == nil {
			_, _, err = warm.Run(experiments.Quick())
		}
		return s, err
	}, nil)
	if err != nil {
		return nil, err
	}
	res := &run{values: map[string]float64{"setup_s": setupS}, facts: map[string]any{}}
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	var counts replayCounts
	var lat, untracedWall, tracedWall, passRSS []float64
	pass := func(traced bool) {
		cfg := st.cfg
		var t *tracer
		if traced {
			t = tr
			t.pass++
			cfg.Probe = obs.NewProbe(math.MaxInt32, counts.sink)
		}
		passS := 0.0 // sum of experiment times: settling is not part of the work
		settle()
		resetPeakRSS()
		for i, r := range st.runners {
			res.attempted++
			var text string
			var err error
			settle()
			s0 := time.Now()
			t.timed(i, "experiments."+r.ID+"_s", "pass", func() { text, _, err = r.Run(cfg) })
			d := time.Since(s0).Seconds()
			passS += d
			if !traced {
				lat = append(lat, d)
			}
			if err == nil {
				err = checkDigest(st.refs, r.ID, text)
			}
			if err != nil {
				res.failed++
				fmt.Fprintln(os.Stderr, "perfbench: repro:", err)
			}
		}
		if traced {
			tracedWall = append(tracedWall, passS)
		} else {
			untracedWall = append(untracedWall, passS)
			passRSS = append(passRSS, peakRSSMB())
		}
	}
	for i := 0; i < e.passes; i++ {
		pass(false)
		if e.trace {
			pass(true)
		}
	}
	res.values["peak_rss_mb"] = median(passRSS)
	res.values["wall_s"] = median(untracedWall)
	res.values["ok_frac"] = 1 - frac(float64(res.failed), float64(res.attempted))
	latencyMetrics(res, lat)
	if e.trace {
		for _, r := range st.runners {
			name := "experiments." + r.ID + "_s"
			res.values[name] = tr.medianPass(name)
		}
		passes := float64(tr.pass)
		res.values["replay.jobs"] = float64(counts.jobs) / passes
		res.values["replay.dedup_hits"] = float64(counts.dedup) / passes
		res.values["replay.dedup_frac"] = frac(float64(counts.dedup), float64(counts.jobs))
		res.values["replay.lane_merges"] = float64(counts.merges) / passes
		res.values["trace.overhead"] = median(tracedWall) / median(untracedWall)
		if err := tr.write(traceDir, fmt.Sprintf("repro-seed%d.json", e.seed), res.facts); err != nil {
			return nil, err
		}
	}
	return res, nil
}
