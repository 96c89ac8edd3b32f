// Package cliflags is the shared tile-size flag vocabulary of the CLIs:
// cholsim, cholbounds, choltune and cholsolve all register -nb (and, where
// mixed-tile DAGs make sense, -nb-split) through the helpers here, so the
// flag names, defaults, help text and the "F@K" split syntax cannot drift
// between binaries.
package cliflags

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// NB registers the shared -nb flag on fs and returns its destination. def is
// the binary's natural default (platform.TileNB for the simulation tools, a
// runtime-appropriate size for cholsolve); what describes what the size is
// applied to ("simulated kernels", "runtime tiles").
func NB(fs *flag.FlagSet, def int, what string) *int {
	return fs.Int("nb", def, fmt.Sprintf("tile size in elements for %s", what))
}

// NBSplit registers the shared -nb-split flag on fs. The empty default means
// "uniform tiles"; a non-empty value is a Split spec in the F@K syntax.
func NBSplit(fs *flag.FlagSet) *string {
	return fs.String("nb-split", "",
		"HeSP-style mixed tiles as F@K: from panel K on, split every trailing coarse tile F× per side (e.g. 2@4); empty = uniform")
}

// Split is a parsed -nb-split specification: from coarse panel FromK on, the
// trailing submatrix is refined so each coarse tile becomes Factor×Factor
// fine tiles (graph.CholeskySplit's arguments).
type Split struct {
	Factor int
	FromK  int
}

// ParseSplit parses the "F@K" syntax. Factor must be ≥ 2 (1 would be the
// uniform DAG — spell that as an empty -nb-split) and K ≥ 0; whether K and
// the factor fit a concrete tile count and coarse size is validated by
// Split.Check at DAG-build time.
func ParseSplit(s string) (Split, error) {
	fTxt, kTxt, ok := strings.Cut(s, "@")
	if !ok {
		return Split{}, fmt.Errorf("cliflags: -nb-split %q is not of the form F@K (e.g. 2@4)", s)
	}
	f, err := strconv.Atoi(fTxt)
	if err != nil || f < 2 {
		return Split{}, fmt.Errorf("cliflags: -nb-split factor in %q must be an integer ≥ 2", s)
	}
	k, err := strconv.Atoi(kTxt)
	if err != nil || k < 0 {
		return Split{}, fmt.Errorf("cliflags: -nb-split panel in %q must be an integer ≥ 0", s)
	}
	return Split{Factor: f, FromK: k}, nil
}

// Check validates the spec against a concrete problem: tiles coarse panels of
// size nb each. It reports the errors graph.CholeskySplit would panic on.
func (sp Split) Check(tiles, nb int) error {
	if tiles < 1 || nb < 1 {
		return fmt.Errorf("cliflags: -nb-split needs at least one tile of positive size, got %d tiles of size %d", tiles, nb)
	}
	if sp.FromK > tiles {
		return fmt.Errorf("cliflags: -nb-split panel %d beyond the last tile %d", sp.FromK, tiles)
	}
	if nb%sp.Factor != 0 {
		return fmt.Errorf("cliflags: -nb-split factor %d does not divide the tile size %d", sp.Factor, nb)
	}
	return nil
}

// String renders the spec back in flag syntax.
func (sp Split) String() string {
	return fmt.Sprintf("%d@%d", sp.Factor, sp.FromK)
}
