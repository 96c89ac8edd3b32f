package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// optimizeFields are the JSON names OptimizeRequest accepts.
var optimizeFields = []string{"platform", "algorithm", "tiles", "node_budget", "workers"}

// FuzzOptimizeRequest drives the /v1/optimize body — the outside input that
// sizes a CP search — through decode and normalize on arbitrary bytes:
// neither panics; an accepted request has 1 ≤ tiles ≤ 32,
// 1 ≤ node_budget ≤ 2 000 000 and 1 ≤ workers ≤ 16; decode accepts no
// object key outside OptimizeRequest's fields (encoding/json matches them
// case-insensitively); and normalize is idempotent.
func FuzzOptimizeRequest(f *testing.F) {
	for _, s := range []string{
		`{"platform":"mirage","tiles":4}`,
		`{"platform":"mirage","tiles":8,"node_budget":3000,"workers":4}`,
		`{"platform":"mirage","algorithm":"lu","tiles":32,"node_budget":9999999,"workers":99}`,
		`{"platform":"mirage","tiles":0}`,
		`{"platform":"mirage","tiles":4,"node_budget":-1}`,
		`{"platform":"mirage","tiles":4,"workers":-3}`,
		`{"platform":"mirage","tiles":4,"seed":7}`,
		`{"PLATFORM":"mirage","Tiles":4}`,
		`{"tiles":4} trailing`,
		`null`,
		`[]`,
		`{"tiles":1e3}`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decode[OptimizeRequest](httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body)))
		if err != nil {
			return
		}
		// decode read exactly one JSON value; every key of it must name a
		// field, or DisallowUnknownFields let an unknown one through.
		var keys map[string]json.RawMessage
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&keys); err != nil {
			t.Fatalf("decode accepted %q, which is not a JSON object: %v", body, err)
		}
		for k := range keys {
			known := false
			for _, name := range optimizeFields {
				known = known || strings.EqualFold(k, name)
			}
			if !known {
				t.Fatalf("decode accepted unknown field %q in %q", k, body)
			}
		}
		n, err := req.normalize()
		if err != nil {
			return
		}
		if n.Tiles < 1 || n.Tiles > 32 {
			t.Fatalf("accepted tiles %d outside [1, 32] from %q", n.Tiles, body)
		}
		if n.NodeBudget < 1 || n.NodeBudget > 2000000 {
			t.Fatalf("accepted node_budget %d outside [1, 2000000] from %q", n.NodeBudget, body)
		}
		if n.Workers < 1 || n.Workers > 16 {
			t.Fatalf("accepted workers %d outside [1, 16] from %q", n.Workers, body)
		}
		again, err := n.normalize()
		if err != nil {
			t.Fatalf("normalize rejects its own output %+v: %v", n, err)
		}
		if again != n {
			t.Fatalf("normalize is not idempotent: %+v then %+v", n, again)
		}
	})
}
