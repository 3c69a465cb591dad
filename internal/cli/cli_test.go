package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qcc/internal/vt"
)

// parse registers set on a fresh flag set and parses args.
func parse(set Flag, args ...string) (*Flags, error) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, Defaults(), set)
	return f, fs.Parse(args)
}

func TestWorkloadFlag(t *testing.T) {
	for _, set := range []Flag{Workload, WorkloadAll} {
		f, err := parse(set)
		if err != nil || f.Workload.Value != "tpch" {
			t.Errorf("set %b, no flag: %q, %v; want tpch", set, f.Workload.Value, err)
		}
		for _, want := range []string{"tpch", "tpcds"} {
			if f, err := parse(set, "-workload", want); err != nil || f.Workload.Value != want {
				t.Errorf("set %b, -workload %s: %q, %v", set, want, f.Workload.Value, err)
			} else if w := f.Workloads(); len(w) != 1 || w[0] != want {
				t.Errorf("set %b, -workload %s: Workloads() = %v", set, want, w)
			}
		}
		for _, bad := range []string{"", "TPCH", "tpch ", "tpc-h", "bogus"} {
			if f, err := parse(set, "-workload", bad); err == nil {
				t.Errorf("set %b, -workload %q parsed as %q, want an error", set, bad, f.Workload.Value)
			}
		}
	}
	if f, err := parse(Workload, "-workload", "all"); err == nil {
		t.Errorf("-workload all accepted (%q) without WorkloadAll", f.Workload.Value)
	}
	f, err := parse(WorkloadAll, "-workload", "all")
	if err != nil {
		t.Fatalf("-workload all with WorkloadAll: %v", err)
	}
	if w := f.Workloads(); strings.Join(w, ",") != "tpch,tpcds" {
		t.Errorf("-workload all: Workloads() = %v, want [tpch tpcds]", w)
	}
}

func TestFormatChoice(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := ChoiceVar(fs, "format", "output format", "chrome", "prom", "json")
	if c.Value != "chrome" {
		t.Errorf("default %q, want chrome", c.Value)
	}
	if u := fs.Lookup("format").Usage; u != "output format: chrome, prom, json" {
		t.Errorf("usage %q", u)
	}
	if err := fs.Parse([]string{"-format", "prom"}); err != nil || c.Value != "prom" {
		t.Errorf("-format prom: %q, %v", c.Value, err)
	}
	if err := fs.Parse([]string{"-format", "top"}); err == nil {
		t.Errorf("-format top accepted as %q", c.Value)
	}
}

// TestBatchDefault pins Config().Batch to the rule each tool applied on its
// own before: on when -exec-jobs > 1, -batch forces on, -nobatch forces off.
func TestBatchDefault(t *testing.T) {
	for _, execJobs := range []string{"1", "2"} {
		for _, batchOn := range []bool{false, true} {
			for _, noBatch := range []bool{false, true} {
				args := []string{"-exec-jobs", execJobs}
				if batchOn {
					args = append(args, "-batch")
				}
				if noBatch {
					args = append(args, "-nobatch")
				}
				f, err := parse(Exec, args...)
				if err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				want := execJobs == "2"
				if batchOn {
					want = true
				}
				if noBatch {
					want = false
				}
				if got := f.Config().Batch; got != want {
					t.Errorf("%v: Batch = %v, want %v", args, got, want)
				}
			}
		}
	}
}

func TestCountFlag(t *testing.T) {
	f, err := parse(Runs)
	if err != nil || f.Config().Runs != 1 {
		t.Errorf("no flag: runs %d, %v; want 1", f.Config().Runs, err)
	}
	if f, err := parse(Runs, "-runs", "3"); err != nil || f.Config().Runs != 3 {
		t.Errorf("-runs 3: %d, %v", f.Config().Runs, err)
	}
	for _, bad := range []string{"0", "-1", "", "x", "1.5"} {
		if f, err := parse(Runs, "-runs", bad); err == nil {
			t.Errorf("-runs %q parsed as %d, want an error", bad, f.Config().Runs)
		}
	}
}

func TestRegisterDefaults(t *testing.T) {
	all := Arch | Workload | SF | Mem | Runs | Check | Jobs | CacheMB | NoFuse | Exec | Out
	f, err := parse(all)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f.Config(), Defaults(); got != want {
		t.Errorf("no flags: %+v, want %+v", got, want)
	}
	f, err = parse(all, "-arch", "va64", "-sf", "0.5", "-mem", "64", "-check", "-jobs", "3",
		"-cache-mb", "8", "-nofuse", "-exec-jobs", "4", "-o", "x.json")
	if err != nil {
		t.Fatal(err)
	}
	c := f.Config()
	if c.Arch != vt.VA64 || c.SF != 0.5 || c.MemMB != 64 || !c.Check || c.Jobs != 3 ||
		c.CacheMB != 8 || !c.NoFuse || c.ExecJobs != 4 || !c.Batch || f.Out != "x.json" {
		t.Errorf("all flags set: %+v, out %q", c, f.Out)
	}
	if _, err := parse(SF, "-mem", "64"); err == nil {
		t.Error("-mem accepted though only SF was registered")
	}
}

func TestQueries(t *testing.T) {
	all, err := Queries("tpch", "")
	if err != nil || len(all) != 22 {
		t.Fatalf("tpch: %d queries, %v; want 22", len(all), err)
	}
	for _, name := range []string{"q6", "Q6"} {
		qs, err := Queries("tpch", name)
		if err != nil || len(qs) != 1 || qs[0].Name != "q6" {
			t.Errorf("-query %s: %v, %v; want [q6]", name, qs, err)
		}
	}
	if _, err := Queries("tpch", "q99"); err == nil || !strings.Contains(err.Error(), "have: q1 ") {
		t.Errorf("-query q99: err %v, want a no-match error listing the queries", err)
	}
	if ds, err := Queries("tpcds", ""); err != nil || len(ds) == 0 {
		t.Errorf("tpcds: %d queries, %v", len(ds), err)
	}
	if _, err := Queries("all", ""); err == nil {
		t.Error(`Queries("all") succeeded; callers expand all first`)
	}
}

func TestEngines(t *testing.T) {
	names := func(arch vt.Arch, pattern string) (string, error) {
		es, err := Engines(arch, pattern)
		var ns []string
		for _, e := range es {
			ns = append(ns, e.Name())
		}
		return strings.Join(ns, ","), err
	}
	for _, tc := range []struct {
		arch          vt.Arch
		pattern, want string
	}{
		{vt.VX64, "", "Interpreter,DirectEmit,Cranelift,LLVM cheap,LLVM optimized,GCC"},
		{vt.VA64, "", "Interpreter,Cranelift,LLVM cheap,LLVM optimized,GCC"},
		{vt.VX64, "cranelift", "Cranelift"},
		{vt.VX64, "LLVM", "LLVM cheap,LLVM optimized"},
		{vt.VX64, "llvm cheap", "LLVM cheap"},
		{vt.VX64, "direct", "DirectEmit"},
	} {
		if got, err := names(tc.arch, tc.pattern); err != nil || got != tc.want {
			t.Errorf("%s %q: %q, %v; want %q", tc.arch, tc.pattern, got, err, tc.want)
		}
	}
	for _, pattern := range []string{"direct", "all", "llvm-opt"} {
		if got, err := names(vt.VA64, pattern); err == nil {
			t.Errorf("va64 %q matched %q, want a no-match error", pattern, got)
		}
	}
}

func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	write := func(w io.Writer) error { _, err := io.WriteString(w, "{}\n"); return err }
	if err := WriteFile("", write); err != nil {
		t.Errorf("empty path: %v", err)
	}
	if err := WriteFile(path, write); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "{}\n" {
		t.Errorf("wrote %q, %v", b, err)
	}
	if err := WriteFile(filepath.Join(path, "sub"), write); err == nil {
		t.Error("writing below a regular file succeeded")
	}
	w, err := Create("-")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stdout.Stat(); err != nil {
		t.Errorf("stdout closed by Create(\"-\").Close: %v", err)
	}
}
