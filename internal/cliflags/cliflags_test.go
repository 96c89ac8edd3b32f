package cliflags

import (
	"flag"
	"testing"
)

func TestParseSplit(t *testing.T) {
	sp, err := ParseSplit("2@4")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Factor != 2 || sp.FromK != 4 {
		t.Fatalf("parsed %+v", sp)
	}
	if sp.String() != "2@4" {
		t.Fatalf("String() = %q", sp.String())
	}
	for _, bad := range []string{"", "2", "@", "2@", "@4", "x@4", "2@x", "1@4", "0@4", "-2@4", "2@-1", "2.5@4"} {
		if _, err := ParseSplit(bad); err == nil {
			t.Errorf("ParseSplit(%q) accepted", bad)
		}
	}
}

func TestSplitCheck(t *testing.T) {
	sp := Split{Factor: 2, FromK: 4}
	if err := sp.Check(8, 960); err != nil {
		t.Fatal(err)
	}
	if err := sp.Check(3, 960); err == nil {
		t.Fatal("fromK beyond tile count accepted")
	}
	if err := (Split{Factor: 7, FromK: 2}).Check(8, 960); err == nil {
		t.Fatal("non-dividing factor accepted")
	}
	if err := (Split{Factor: 2, FromK: 0}).Check(0, 960); err == nil {
		t.Fatal("zero tiles accepted")
	}
	if err := (Split{Factor: 2, FromK: 0}).Check(8, 0); err == nil {
		t.Fatal("zero tile size accepted")
	}
}

func TestFlagRegistration(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	nb := NB(fs, 960, "the simulated kernels")
	split := NBSplit(fs)
	if err := fs.Parse([]string{"-nb", "480", "-nb-split", "2@7"}); err != nil {
		t.Fatal(err)
	}
	if *nb != 480 || *split != "2@7" {
		t.Fatalf("nb=%d split=%q", *nb, *split)
	}
}
