package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// The generators below turn a workload seed into the exact operation list a
// run executes. Costly inputs are drawn by stratified sampling — k draws
// over a range take one value from each of k equal sub-ranges — so every
// seed carries nearly the same amount of work and only the concrete sizes,
// seeds and order change. That keeps per-run spread low without fixing the
// inputs.

// schedulers are the dynamic policies the cold-sim and serve workloads draw
// from: the paper's three StarPU baselines.
var schedulers = []string{"dmda", "dmdas", "random"}

// stratified returns k values from [lo, hi], the i-th drawn uniformly from
// the i-th of k equal sub-ranges, in shuffled order. With more draws than
// values every value is drawn about equally often, and the seed only
// orders them.
func stratified(r *rand.Rand, lo, hi, k int) []int {
	width := float64(hi-lo+1) / float64(k)
	out := make([]int, k)
	for i := range out {
		a := lo + int(float64(i)*width)
		b := lo + int(float64(i+1)*width) - 1
		if b < a {
			b = a
		}
		out[i] = a + r.Intn(b-a+1)
	}
	r.Shuffle(k, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// simOp is one cold simulation: a fresh P-tile Cholesky DAG under a named
// scheduler, no jitter.
type simOp struct {
	Tiles     int    `json:"tiles"`
	Scheduler string `json:"scheduler"`
	Seed      int64  `json:"seed"`
}

// coldSimOps is one cold-sim pass: per scheduler, five calls at P in
// [48, 64], one in [32, 47] and one at P = 96, in seeded order. The five
// are P = 56 and two pairs mirrored around it, so the median call is the
// same size for every seed.
func coldSimOps(seed int64) []simOp {
	r := rand.New(rand.NewSource(seed))
	var ops []simOp
	for _, s := range schedulers {
		tiles := []int{56}
		for _, p := range stratified(r, 48, 55, 2) {
			tiles = append(tiles, p, 112-p)
		}
		tiles = append(tiles, stratified(r, 32, 47, 1)[0], 96)
		for _, p := range tiles {
			ops = append(ops, simOp{Tiles: p, Scheduler: s, Seed: 1 + r.Int63n(1<<20)})
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// reproOrder is the seeded order in which a repro pass runs the experiments.
func reproOrder(seed int64) []string {
	ids := append([]string(nil), reproIDs...)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// request is one serve-workload HTTP call, sent by client Client. Repeat is
// the index of the earlier request it exactly repeats (-1 for a fresh one);
// Trace asks the client to follow a recorded simulate with
// GET /v1/runs/{id}/trace.
type request struct {
	Client int             `json:"client"`
	Kind   string          `json:"kind"` // simulate | bounds | sweep | optimize
	Path   string          `json:"path"`
	Body   json.RawMessage `json:"body"`
	Repeat int             `json:"repeat"`
	Trace  bool            `json:"trace,omitempty"`
}

// servePlatform is the platform every serve request names: the paper's
// Mirage machine.
const servePlatform = "mirage"

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %T: %v", v, err))
	}
	return b
}

// serveRequests is one serve pass for two closed-loop clients with about
// equal work. Client 0 asks the few large questions, one at a time: the
// simulations at 48, 56 and 64 tiles and the bounds at 64, 80 and 96 tiles.
// They set the latency tail and the memory peak, so their sizes and order
// are fixed; the seed draws their simulation seeds. Client 1 sends the
// paper-range traffic: 120 simulations at 2–32 tiles, three recorded runs
// at 4–12 tiles whose trace it then reads, 48 bounds at 2–32 tiles, four
// batched sweeps and four optimize calls with 20k–60k node budgets. A
// quarter of each client's requests exactly repeat one of its own earlier
// requests, so every repeat finds its answer cached.
func serveRequests(seed int64) []request {
	r := rand.New(rand.NewSource(seed))
	var fresh []request
	sim := func(tiles int, s string, record bool) {
		body := map[string]any{"platform": servePlatform, "scheduler": s, "tiles": tiles,
			"seed": 1 + r.Int63n(1<<20)}
		if record {
			body["record"] = true
		}
		fresh = append(fresh, request{Kind: "simulate", Path: "/v1/simulate", Body: mustJSON(body), Trace: record})
	}
	bnd := func(tiles int) {
		fresh = append(fresh, request{Kind: "bounds", Path: "/v1/bounds",
			Body: mustJSON(map[string]any{"platform": servePlatform, "tiles": tiles})})
	}

	bnd(64)
	sim(48, "dmda", false)
	bnd(80)
	sim(56, "random", false)
	bnd(96)
	sim(64, "dmdas", false)
	out := withRepeats(r, fresh, 0, nil)

	fresh = nil
	for i, p := range stratified(r, 2, 32, 120) {
		sim(p, schedulers[i%len(schedulers)], false)
	}
	for i, p := range stratified(r, 4, 12, 3) {
		sim(p, schedulers[i], true)
	}
	for _, p := range stratified(r, 2, 32, 48) {
		bnd(p)
	}
	for i := 0; i < 4; i++ {
		fresh = append(fresh, request{Kind: "sweep", Path: "/v1/sweep", Body: mustJSON(map[string]any{
			"platform": servePlatform, "schedulers": schedulers, "tiles": stratified(r, 8, 32, 3),
			"seed": 1 + r.Int63n(1<<20), "batch": true})})
	}
	budgets := stratified(r, 20, 60, 4)
	for i, p := range stratified(r, 6, 10, 4) {
		fresh = append(fresh, request{Kind: "optimize", Path: "/v1/optimize", Body: mustJSON(map[string]any{
			"platform": servePlatform, "tiles": p, "node_budget": budgets[i] * 1000})})
	}
	r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	return withRepeats(r, fresh, 1, out)
}

// withRepeats interleaves a third as many exact repeats (a quarter of the
// result) into one client's fresh requests and appends them to out.
// Each repeat goes after the client's fourth fresh request or later — with
// at most three recorded requests, a non-recorded one always precedes it —
// and copies a uniformly chosen earlier non-recorded request of the client.
func withRepeats(r *rand.Rand, fresh []request, client int, out []request) []request {
	after := make([]int, len(fresh)) // repeats placed after fresh[i]
	for i := 0; i < len(fresh)/3; i++ {
		after[3+r.Intn(len(fresh)-3)]++
	}
	first := len(out)
	for i, q := range fresh {
		q.Client, q.Repeat = client, -1
		out = append(out, q)
		for k := 0; k < after[i]; k++ {
			var cands []int
			for j := first; j < len(out); j++ {
				if out[j].Repeat < 0 && !out[j].Trace {
					cands = append(cands, j)
				}
			}
			src := cands[r.Intn(len(cands))]
			rep := out[src]
			rep.Repeat = src
			out = append(out, rep)
		}
	}
	return out
}
