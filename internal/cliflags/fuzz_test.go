package cliflags

import (
	"testing"

	"repro/internal/graph"
)

// FuzzParseSplit checks the F@K parser on arbitrary input: ParseSplit never
// panics; an accepted spec prints through String() to text that parses back
// to the same spec; and whenever Check accepts a spec for a (tiles, nb)
// problem, graph.CholeskySplit builds that DAG without panicking — Check's
// documented promise. tiles is folded into [0, 8] and nb into [-1, 8] so
// every accepted build stays small (factor ≤ nb bounds the fine grid).
func FuzzParseSplit(f *testing.F) {
	for _, s := range []string{"2@4", "2@0", "4@8", "8@3", "3@2", "02@+1", "1@4", "2@-1", "x@4", "2@", "@", ""} {
		f.Add(s, 8, 8)
	}
	f.Add("2@4", 0, 8)
	f.Add("2@1", 3, 0)
	f.Add("3@9", 8, 6)
	f.Fuzz(func(t *testing.T, spec string, tiles, nb int) {
		sp, err := ParseSplit(spec)
		if err != nil {
			return
		}
		back, err := ParseSplit(sp.String())
		if err != nil {
			t.Fatalf("String() of accepted %q = %q, which does not parse: %v", spec, sp.String(), err)
		}
		if back != sp {
			t.Fatalf("%q parsed to %+v, but its String() %q parses to %+v", spec, sp, sp.String(), back)
		}
		tiles = (tiles%9 + 9) % 9
		nb = (nb%10+10)%10 - 1
		if sp.Check(tiles, nb) != nil {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Check(%d, %d) accepted %+v but CholeskySplit panicked: %v", tiles, nb, sp, r)
			}
		}()
		graph.CholeskySplit(tiles, sp.FromK, sp.Factor, nb)
	})
}
