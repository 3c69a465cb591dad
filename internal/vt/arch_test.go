package vt

import (
	"flag"
	"io"
	"testing"
)

func TestArchFlag(t *testing.T) {
	parse := func(args ...string) (Arch, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		a := VX64
		fs.Var(&a, "arch", "")
		return a, fs.Parse(args)
	}
	if a, err := parse(); err != nil || a != VX64 {
		t.Errorf("no flag: %v, %v; want vx64", a, err)
	}
	for _, want := range []Arch{VX64, VA64} {
		if a, err := parse("-arch", want.String()); err != nil || a != want {
			t.Errorf("-arch %s: %v, %v; want %v", want, a, err, want)
		}
	}
	for _, bad := range []string{"", "x64", "VX64", "va64 ", "arm64"} {
		if a, err := parse("-arch", bad); err == nil {
			t.Errorf("-arch %q parsed as %v, want an error", bad, a)
		}
	}
}
