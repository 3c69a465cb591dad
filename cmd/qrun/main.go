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
// a constant-only variant of it — see -repeat) hits the cache and skips
// back-end compilation. Hit/miss counts print with the stats summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"qcc"
)

func main() {
	engine := flag.String("engine", "adaptive", "execution back-end: "+strings.Join(qc.Engines(), ", "))
	workload := flag.String("workload", "tpch", "preloaded schema: tpch or tpcds")
	sf := flag.Float64("sf", 0.05, "scale factor")
	arch := qc.VX64
	flag.Var(&arch, "arch", "target architecture: vx64 (default) or va64")
	mem := flag.Int("mem", 512, "VM memory in MiB")
	noFuse := flag.Bool("nofuse", false, "disable vm superinstruction fusion (plain decoded-switch dispatch)")
	execJobs := flag.Int("exec-jobs", 1, "morsel-parallel executor workers (1 = sequential)")
	batchOn := flag.Bool("batch", false, "compile eligible scan pipelines to batch-at-a-time kernels (default on when -exec-jobs > 1)")
	noBatch := flag.Bool("nobatch", false, "force tuple-at-a-time execution even with -exec-jobs > 1")
	cacheMB := flag.Int("cache-mb", 0, "compiled-code cache budget in MiB (0 = disabled)")
	repeat := flag.Int("repeat", 1, "run the query N times (later runs hit the cache when -cache-mb > 0)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qrun [flags] \"SELECT ...\"")
		os.Exit(2)
	}
	batch := *execJobs > 1
	if *batchOn {
		batch = true
	}
	if *noBatch {
		batch = false
	}

	db, err := qc.Open(qc.WithArch(arch), qc.WithMemoryMB(*mem), qc.WithEngine(*engine),
		qc.WithFusion(!*noFuse), qc.WithExecJobs(*execJobs), qc.WithBatch(batch),
		qc.WithCacheMB(*cacheMB))
	if err != nil {
		fatal(err)
	}
	switch *workload {
	case "tpch":
		err = db.LoadTPCH(*sf)
	case "tpcds":
		err = db.LoadTPCDS(*sf)
	default:
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if err != nil {
		fatal(err)
	}

	var hits, misses int64
	var res *qc.Result
	for r := 0; r < *repeat; r++ {
		res, err = db.Exec(flag.Arg(0))
		if err != nil {
			fatal(err)
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
	if *cacheMB > 0 {
		fmt.Fprintf(os.Stderr, "code cache (%d MiB): %d hits, %d misses across %d runs\n",
			*cacheMB, hits, misses, *repeat)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qrun:", err)
	os.Exit(1)
}
