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
	"qcc/internal/codegen"
	"qcc/internal/rt"
	"qcc/internal/sql"
	"qcc/internal/tpcds"
	"qcc/internal/tpch"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

func main() {
	workload := flag.String("workload", "tpch", "preloaded schema: tpch or tpcds")
	sf := flag.Float64("sf", 0.01, "scale factor")
	show := flag.String("show", "qir", "artifact: qir, c, asm, or all")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qir [flags] \"SELECT ...\"")
		os.Exit(2)
	}

	m := vm.New(vm.Config{Arch: vt.VX64, MemSize: 256 << 20})
	db := rt.NewDB(m)
	cat := rt.NewCatalog(db)
	var err error
	switch *workload {
	case "tpch":
		err = tpch.Load(cat, *sf)
	case "tpcds":
		err = tpcds.Load(cat, *sf)
	default:
		fmt.Fprintf(os.Stderr, "qir: unknown workload %q (want tpch or tpcds)\n", *workload)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	node, err := sql.Parse(flag.Arg(0), cat)
	if err != nil {
		fatal(err)
	}
	c, err := codegen.Compile("q", node, cat)
	if err != nil {
		fatal(err)
	}
	env := &backend.Env{DB: db, Arch: vt.VX64}

	if *show == "qir" || *show == "all" {
		fmt.Printf("; %d pipelines, %d functions\n", len(c.Pipelines), c.NumFuncs)
		fmt.Print(c.Module.String())
	}
	if *show == "c" || *show == "all" {
		src, err := cbe.GenerateC(c.Module, env)
		if err != nil {
			fatal(err)
		}
		fmt.Println(src)
	}
	if *show == "asm" || *show == "all" {
		ex, stats, err := direct.New().Compile(c.Module, env)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("; DirectEmit: %d bytes in %v\n", stats.CodeBytes, stats.Total)
		if d, ok := ex.(interface{ Disasm() string }); ok {
			fmt.Print(d.Disasm())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qir:", err)
	os.Exit(1)
}
