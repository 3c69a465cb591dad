// Command qrun executes SQL against a generated workload with a chosen
// back-end and prints results plus the compile-time breakdown.
//
// Usage:
//
//	qrun [-engine adaptive] [-workload tpch|tpcds] [-sf 0.05] [-arch vx64]
//	     [-mem 512] [-nofuse] [-exec-jobs N] [-batch|-nobatch]
//	     [-cache-mb N] [-repeat N] "SELECT ..."
//
// -exec-jobs N executes table pipelines through the morsel-parallel
// executor with N workers; -batch compiles eligible scan pipelines to
// batch-at-a-time kernels. Batch kernels default on when -exec-jobs > 1;
// -nobatch forces tuple-at-a-time code either way. Results are identical
// under every combination.
//
// -cache-mb N enables the content-addressed compiled-code cache; since
// constant hoisting parameterizes compiled bodies, re-running the query (or
// a constant-only variant of it — see -repeat, which must be at least 1)
// hits the cache and skips back-end compilation. Hit/miss counts print with
// the stats summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"qcc"
	"qcc/internal/cli"
)

func main() {
	engine := flag.String("engine", "adaptive", "execution back-end: "+strings.Join(qc.Engines(), ", "))
	def := cli.Defaults()
	def.SF = 0.05
	f := cli.Register(flag.CommandLine, def, cli.Arch|cli.Workload|cli.SF|cli.Mem|cli.NoFuse|cli.Exec|cli.CacheMB)
	var repeat int
	cli.CountVar(flag.CommandLine, &repeat, "repeat", 1, "run the query N times (later runs hit the cache when -cache-mb > 0)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qrun [flags] \"SELECT ...\"")
		os.Exit(2)
	}
	cfg := f.Config()

	db, err := qc.Open(qc.WithArch(cfg.Arch), qc.WithMemoryMB(cfg.MemMB), qc.WithEngine(*engine),
		qc.WithFusion(!cfg.NoFuse), qc.WithExecJobs(cfg.ExecJobs), qc.WithBatch(cfg.Batch),
		qc.WithCacheMB(cfg.CacheMB))
	if err != nil {
		cli.Fail("%v", err)
	}
	load := db.LoadTPCH
	if f.Workload.Value == "tpcds" {
		load = db.LoadTPCDS
	}
	if err := load(cfg.SF); err != nil {
		cli.Fail("%v", err)
	}

	var hits, misses int64
	var res *qc.Result
	for r := 0; r < repeat; r++ {
		res, err = db.Exec(flag.Arg(0))
		if err != nil {
			cli.Fail("%v", err)
		}
		hits += res.Stats.CacheHits
		misses += res.Stats.CacheMisses
	}
	for _, row := range res.Rows {
		fmt.Println(strings.Join(row, " | "))
	}
	fmt.Fprintf(os.Stderr, "\n%d rows; engine %s; %d functions, %d bytes of code\n",
		len(res.Rows), res.Stats.Engine, res.Stats.Functions, res.Stats.CodeBytes)
	fmt.Fprintf(os.Stderr, "compile %v, execute %v\n", res.Stats.CompileTime, res.Stats.ExecTime)
	if cfg.CacheMB > 0 {
		fmt.Fprintf(os.Stderr, "code cache (%d MiB): %d hits, %d misses across %d runs\n",
			cfg.CacheMB, hits, misses, repeat)
	}
	var names []string
	for n := range res.Stats.Phases {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return res.Stats.Phases[names[i]] > res.Stats.Phases[names[j]] })
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-20s %v\n", n, res.Stats.Phases[n])
	}
}
