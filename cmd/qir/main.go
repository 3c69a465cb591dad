// Command qir shows the compilation artifacts for a SQL query: the QIR the
// data-centric code generator produces, the generated C source of the GCC
// back-end, and the DirectEmit machine code.
//
// Usage:
//
//	qir [-workload tpch|tpcds] [-sf 0.01] [-show qir|c|asm|all] "SELECT ..."
package main

import (
	"flag"
	"fmt"
	"os"

	"qcc/internal/backend"
	"qcc/internal/backend/cbe"
	"qcc/internal/backend/direct"
	"qcc/internal/bench"
	"qcc/internal/cli"
	"qcc/internal/codegen"
	"qcc/internal/sql"
)

func main() {
	def := cli.Defaults()
	def.MemMB = 256 // no -mem flag: the VM size qir has always used
	f := cli.Register(flag.CommandLine, def, cli.Workload|cli.SF)
	show := flag.String("show", "qir", "artifact: qir, c, asm, or all")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qir [flags] \"SELECT ...\"")
		os.Exit(2)
	}
	cfg := f.Config()

	w, err := bench.NewWorldLoaded(cfg, f.Workload.Value)
	if err != nil {
		cli.Fail("%v", err)
	}
	node, err := sql.Parse(flag.Arg(0), w.Cat)
	if err != nil {
		cli.Fail("%v", err)
	}
	c, err := codegen.Compile("q", node, w.Cat)
	if err != nil {
		cli.Fail("%v", err)
	}
	env := &backend.Env{DB: w.DB, Arch: cfg.Arch}

	if *show == "qir" || *show == "all" {
		fmt.Printf("; %d pipelines, %d functions\n", len(c.Pipelines), c.NumFuncs)
		fmt.Print(c.Module.String())
	}
	if *show == "c" || *show == "all" {
		src, err := cbe.GenerateC(c.Module, env)
		if err != nil {
			cli.Fail("%v", err)
		}
		fmt.Println(src)
	}
	if *show == "asm" || *show == "all" {
		ex, stats, err := direct.New().Compile(c.Module, env)
		if err != nil {
			cli.Fail("%v", err)
		}
		fmt.Printf("; DirectEmit: %d bytes in %v\n", stats.CodeBytes, stats.Total)
		if d, ok := ex.(interface{ Disasm() string }); ok {
			fmt.Print(d.Disasm())
		}
	}
}
