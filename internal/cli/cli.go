// Package cli is the flag layer of the cmd/* tools. It declares the flags
// the tools share and fills a bench.Config from them, and it holds the
// policies the tools must agree on: the batch-kernel default, the accepted
// workload names, -query and -engine selection, "-" as standard output, and
// exit statuses (2 for a usage error, which the flag package reports while
// parsing; 1 for a failure, via Fail).
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"qcc/internal/backend"
	"qcc/internal/bench"
	"qcc/internal/vt"
)

// Flag selects shared flags for Register; combine them with |.
type Flag uint

// The shared flags.
const (
	Arch        Flag = 1 << iota // -arch
	Workload                     // -workload: tpch or tpcds
	WorkloadAll                  // -workload: tpch, tpcds, or all (both)
	SF                           // -sf
	Mem                          // -mem
	Runs                         // -runs, at least 1
	Check                        // -check
	Jobs                         // -jobs
	CacheMB                      // -cache-mb
	NoFuse                       // -nofuse
	Exec                         // -exec-jobs, -batch and -nobatch
	Out                          // -o
)

// Defaults returns the flag defaults most tools use: scale factor 0.01,
// 512 MiB of VM memory, one run, sequential compilation and execution.
func Defaults() bench.Config {
	return bench.Config{Arch: vt.VX64, SF: 0.01, MemMB: 512, Runs: 1, Jobs: 1, ExecJobs: 1}
}

// Flags holds the parsed values of the shared flags one tool declared.
type Flags struct {
	cfg            bench.Config
	batch, noBatch bool
	// Workload is the -workload choice (nil when not declared).
	Workload *Choice
	// Out is the -o destination; "-" is standard output.
	Out string
}

// Register declares the shared flags in set on fs. def gives their
// defaults, and the config fields of the flags a tool does not declare.
func Register(fs *flag.FlagSet, def bench.Config, set Flag) *Flags {
	f := &Flags{cfg: def, Out: "-"}
	c := &f.cfg
	if set&Arch != 0 {
		fs.Var(&c.Arch, "arch", "target architecture: vx64 (default) or va64")
	}
	if set&(Workload|WorkloadAll) != 0 {
		names := []string{"tpch", "tpcds"}
		if set&WorkloadAll != 0 {
			names = append(names, "all")
		}
		f.Workload = ChoiceVar(fs, "workload", "workload", names...)
	}
	if set&SF != 0 {
		fs.Float64Var(&c.SF, "sf", c.SF, "scale factor")
	}
	if set&Mem != 0 {
		fs.IntVar(&c.MemMB, "mem", c.MemMB, "VM memory in MiB")
	}
	if set&Runs != 0 {
		CountVar(fs, &c.Runs, "runs", c.Runs, "execution repetitions per query")
	}
	if set&Check != 0 {
		fs.BoolVar(&c.Check, "check", c.Check, "run the machine-code verifier on every compilation (adds Check.* phases)")
	}
	if set&Jobs != 0 {
		fs.IntVar(&c.Jobs, "jobs", c.Jobs, "parallel compilation workers (1 = sequential)")
	}
	if set&CacheMB != 0 {
		fs.IntVar(&c.CacheMB, "cache-mb", c.CacheMB, "content-addressed code cache budget in MiB (0 = disabled)")
	}
	if set&NoFuse != 0 {
		fs.BoolVar(&c.NoFuse, "nofuse", c.NoFuse, "disable vm superinstruction fusion (plain decoded-switch dispatch)")
	}
	if set&Exec != 0 {
		fs.IntVar(&c.ExecJobs, "exec-jobs", c.ExecJobs, "morsel-parallel executor workers (1 = sequential)")
		fs.BoolVar(&f.batch, "batch", false, "compile eligible scan pipelines to batch-at-a-time kernels (default on when -exec-jobs > 1)")
		fs.BoolVar(&f.noBatch, "nobatch", false, "force tuple-at-a-time execution even with -exec-jobs > 1")
	}
	if set&Out != 0 {
		fs.StringVar(&f.Out, "o", f.Out, "output file (\"-\" for stdout)")
	}
	return f
}

// Config returns the config the parsed flags describe. Batch kernels are on
// when -exec-jobs > 1 or -batch is given, unless -nobatch is.
func (f *Flags) Config() bench.Config {
	c := f.cfg
	c.Batch = (c.ExecJobs > 1 || f.batch) && !f.noBatch
	return c
}

// Workloads returns the workloads -workload names: "all" stands for both.
func (f *Flags) Workloads() []string {
	if f.Workload.Value == "all" {
		return []string{"tpch", "tpcds"}
	}
	return []string{f.Workload.Value}
}

// Choice is a flag.Value holding one of a fixed list of names. Set rejects
// any other name, so parsing fails with a usage error.
type Choice struct {
	Value string
	names []string
}

func (c *Choice) String() string { return c.Value }

// Set implements flag.Value.
func (c *Choice) Set(s string) error {
	if !slices.Contains(c.names, s) {
		return fmt.Errorf("unknown %q (want one of %s)", s, c.list())
	}
	c.Value = s
	return nil
}

func (c *Choice) list() string { return strings.Join(c.names, ", ") }

// ChoiceVar declares a flag that accepts only names; names[0] is the
// default.
func ChoiceVar(fs *flag.FlagSet, name, usage string, names ...string) *Choice {
	c := &Choice{Value: names[0], names: names}
	fs.Var(c, name, usage+": "+c.list())
	return c
}

// count is an int flag.Value that rejects values below 1.
type count int

func (n *count) String() string { return strconv.Itoa(int(*n)) }

func (n *count) Set(s string) error {
	v, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return err
	}
	if v < 1 {
		return errors.New("must be at least 1")
	}
	*n = count(v)
	return nil
}

// CountVar declares an int flag, like flag.IntVar, whose value must be at
// least 1.
func CountVar(fs *flag.FlagSet, p *int, name string, value int, usage string) {
	*p = value
	fs.Var((*count)(p), name, usage)
}

// Queries returns the queries of workload ("tpch" or "tpcds"), or only the
// one named query (case-insensitive) when query is not empty.
func Queries(workload, query string) ([]bench.Query, error) {
	var qs []bench.Query
	switch workload {
	case "tpch":
		qs = bench.HQueries()
	case "tpcds":
		qs = bench.DSQueries()
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if query == "" {
		return qs, nil
	}
	names := make([]string, len(qs))
	for i, q := range qs {
		if strings.EqualFold(q.Name, query) {
			return qs[i : i+1], nil
		}
		names[i] = q.Name
	}
	return nil, fmt.Errorf("query %q not in %s (have: %s)", query, workload, strings.Join(names, " "))
}

// Engines returns the standard engines of arch (bench.Engines order) whose
// name contains pattern, ignoring case; the empty pattern selects all.
func Engines(arch vt.Arch, pattern string) ([]backend.Engine, error) {
	var sel []backend.Engine
	for _, e := range bench.Engines(arch) {
		if strings.Contains(strings.ToLower(e.Name()), strings.ToLower(pattern)) {
			sel = append(sel, e)
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("no engine matches %q on %s", pattern, arch)
	}
	return sel, nil
}

// Create opens the output destination path for writing; "-" is standard
// output, which Close leaves open.
func Create(path string) (io.WriteCloser, error) {
	if path == "-" {
		return stdout{os.Stdout}, nil
	}
	return os.Create(path)
}

type stdout struct{ io.Writer }

func (stdout) Close() error { return nil }

// WriteFile writes the output of write to path (see Create). An empty path
// writes nothing.
func WriteFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	w, err := Create(path)
	if err != nil {
		return err
	}
	if err := write(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// Fail prints "<command>: <message>" to standard error and exits with
// status 1.
func Fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, filepath.Base(os.Args[0])+": "+format+"\n", args...)
	os.Exit(1)
}
