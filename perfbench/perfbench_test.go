package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"repro/internal/experiments"
	"repro/internal/graph"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q     float64
		value float64
	}{
		{20, 50, 10}, // 10 samples above the median
		{100, 90, 90},
		{200, 95, 190},
		{1000, 99, 990},
		{20000, 99.9, 19980},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1) // descending, so tail must sort
		}
		q, v, n, ok := tail(xs)
		if !ok || q != tc.q || v != tc.value || n != tc.n {
			t.Errorf("n=%d: got q=%v value=%v n=%d ok=%v, want q=%v value=%v", tc.n, q, v, n, ok, tc.q, tc.value)
		}
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		if _, beyond := nearestRank(sorted, q); beyond < minBeyond {
			t.Errorf("n=%d: p%v has %d samples beyond, want >= %d", tc.n, q, beyond, minBeyond)
		}
	}
	if _, _, _, ok := tail(make([]float64, 19)); ok {
		t.Error("19 samples cannot give a tail with 10 beyond the median")
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("invalid metric name %q", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: invalid unit %q", name, unit)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range bf.Workloads {
		checkName(w.Name, "")
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark implements %d", len(bf.Workloads), len(workloads))
	}
	type def struct{ unit, better string }
	file := map[string]def{}
	for _, m := range bf.EndToEnd {
		checkName(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		file[m.Name] = def{m.Unit, m.Better}
	}
	for _, m := range bf.PerLayer {
		checkName(m.Name, m.Unit)
		file["layer:"+m.Name] = def{m.Unit, m.Better}
	}
	code := map[string]string{}
	for _, d := range endToEnd {
		code[d.name] = d.unit
	}
	for _, d := range perLayer() {
		code["layer:"+d.name] = d.unit
	}
	for name, d := range file {
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", name, d.better)
		}
		if code[name] != d.unit {
			t.Errorf("%s: BENCHMARK.json unit %q, benchmark emits %q", name, d.unit, code[name])
		}
	}
	for name := range code {
		if _, ok := file[name]; !ok {
			t.Errorf("benchmark emits %s, which BENCHMARK.json does not list", name)
		}
	}
	if s := file["setup_s"]; s.unit != "s" || s.better != "lower" {
		t.Errorf("setup_s must be in s, lower is better: %+v", s)
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	gens := map[string]func(int64) any{
		"cold-sim": func(s int64) any { return coldSimOps(s) },
		"serve":    func(s int64) any { return serveRequests(s) },
		"repro":    func(s int64) any { return reproOrder(s) },
	}
	for name, gen := range gens {
		a, _ := json.Marshal(gen(7))
		b, _ := json.Marshal(gen(7))
		c, _ := json.Marshal(gen(8))
		if string(a) != string(b) {
			t.Errorf("%s: seed 7 gave two different lists", name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same list", name)
		}
	}
}

func TestServeRequestMix(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		reqs := serveRequests(seed)
		repeats := 0
		for i, q := range reqs {
			if q.Repeat >= 0 {
				repeats++
				src := reqs[q.Repeat]
				if q.Repeat >= i || src.Repeat >= 0 || src.Trace || src.Client != q.Client || string(src.Body) != string(q.Body) {
					t.Fatalf("seed %d: request %d is not an exact repeat of an earlier fresh request of its client", seed, i)
				}
			}
		}
		if repeats != len(reqs)/4 {
			t.Fatalf("seed %d: %d repeats in %d requests, want a quarter", seed, repeats, len(reqs))
		}
	}
}

func TestCholeskyTaskCount(t *testing.T) {
	for _, p := range []int{1, 2, 7, 32} {
		reqs := []request{{Kind: "simulate", Body: mustJSON(map[string]any{"scheduler": "dmda", "tiles": p})}}
		if got, want := simulatedTasks(reqs), len(graph.Cholesky(p).Tasks); got != want {
			t.Errorf("P=%d: counted %d tasks, the DAG has %d", p, got, want)
		}
	}
}

func TestDigestCheckCatchesPerturbedOutput(t *testing.T) {
	refs, err := loadDigests(reproDigestsJSON)
	if err != nil {
		t.Fatal(err)
	}
	cfg := reproConfig()
	for _, id := range []string{"fig2", "table1"} {
		r, err := experiments.Find(id)
		if err != nil {
			t.Fatal(err)
		}
		text, _, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDigest(refs, id, text); err != nil {
			t.Fatalf("unperturbed %s: %v", id, err)
		}
		perturbed := []byte(text)
		for i := len(perturbed) - 1; i >= 0; i-- {
			if perturbed[i] >= '0' && perturbed[i] <= '8' {
				perturbed[i]++ // one digit of one number
				break
			}
		}
		if err := checkDigest(refs, id, string(perturbed)); err == nil {
			t.Errorf("%s: a one-digit change passed the digest check", id)
		}
	}
}
