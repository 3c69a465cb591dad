// Command qtrace captures a compile-time trace of one (or every) query on
// one (or every) back-end and exports it as a Chrome trace-event JSON file
// (loadable in Perfetto or chrome://tracing), Prometheus text exposition,
// or the stable qcc.obs.report/v2 JSON schema.
//
// Usage:
//
//	qtrace [-arch vx64|va64] [-workload tpch|tpcds] [-query q1] [-engine all]
//	       [-sf 0.01] [-mem 512] [-runs 1] [-allocs] [-check] [-jobs N]
//	       [-cache-mb N] [-nofuse] [-exec-jobs N] [-batch|-nobatch]
//	       [-format chrome|prom|json] [-o trace.json]
//
// -exec-jobs N executes table pipelines through the morsel-parallel
// executor with N workers and -batch compiles eligible scan pipelines to
// batch kernels (default on when -exec-jobs > 1; -nobatch forces tuple
// code), so exec spans and the exec_*/rt_batch_* counters cover those
// configurations too.
//
// Example (one TPC-H query, all engines, nested per-pass spans):
//
//	qtrace -workload tpch -query q1 -sf 0.01 -o q1.trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"qcc/internal/bench"
	"qcc/internal/cli"
	"qcc/internal/obs"
)

func main() {
	f := cli.Register(flag.CommandLine, cli.Defaults(), cli.Arch|cli.Workload|cli.SF|cli.Mem|cli.Runs|
		cli.Check|cli.Jobs|cli.CacheMB|cli.NoFuse|cli.Exec|cli.Out)
	query := flag.String("query", "", "trace only this query (default: all queries of the workload)")
	engine := flag.String("engine", "all", "engine name or substring (e.g. \"cranelift\", \"llvm cheap\"), or \"all\"")
	allocs := flag.Bool("allocs", false, "capture per-span heap allocation deltas (slows compilation; off by default)")
	format := cli.ChoiceVar(flag.CommandLine, "format", "output format", "chrome", "prom", "json")
	flag.Parse()
	cfg := f.Config()
	workload := f.Workload.Value

	queries, err := cli.Queries(workload, *query)
	if err != nil {
		cli.Fail("%v", err)
	}
	pattern := *engine
	if pattern == "all" {
		pattern = ""
	}
	engines, err := cli.Engines(cfg.Arch, pattern)
	if err != nil {
		cli.Fail("%v", err)
	}

	// Open the destination before the capture so a bad path fails fast.
	dst, err := cli.Create(f.Out)
	if err != nil {
		cli.Fail("%v", err)
	}

	// Trace: one tracer (hence one Chrome-trace process) per engine, each
	// running the selected queries on a fresh world.
	var traces []*obs.Trace
	report := &obs.Report{
		Schema: obs.Schema, Arch: cfg.Arch.String(),
		Workload: workload, SF: cfg.SF, Jobs: cfg.Jobs, Engines: []obs.EngineReport{},
	}
	for _, eng := range engines {
		// WrapEngine applies -jobs (parallel driver) and the code cache, so
		// traces cover the same configurations CI runs.
		eng := cfg.WrapEngine(eng, cfg.NewCodeCache())
		w, err := bench.NewWorldLoaded(cfg, workload)
		if err != nil {
			cli.Fail("load %s: %v", workload, err)
		}
		tr := obs.New(obs.Options{Allocs: *allocs})
		run, err := bench.RunSuiteExec(w, eng, cfg.Arch, queries, cfg.Runs, tr, cfg.BackendOptions(), cfg.ExecSettings())
		if err != nil {
			cli.Fail("%v", err)
		}
		traces = append(traces, tr.Snapshot(eng.Name()))
		report.Engines = append(report.Engines, bench.EngineReportOf(run))
		if cfg.CacheMB > 0 {
			// The counts also land in -format prom/json output; this stderr
			// line makes them visible in the default chrome-trace mode.
			fmt.Fprintf(os.Stderr, "qtrace: %s code cache (%d MiB): %d hits, %d misses\n",
				eng.Name(), cfg.CacheMB, run.Stats.Counters["cache_hits"], run.Stats.Counters["cache_misses"])
		}
	}
	report.Global = obs.GlobalCounters()

	switch format.Value {
	case "chrome":
		if err := obs.WriteChrome(dst, traces...); err != nil {
			cli.Fail("%v", err)
		}
	case "prom":
		labels := map[string]string{"arch": cfg.Arch.String(), "workload": workload}
		for _, tr := range traces {
			if err := tr.WritePrometheus(dst, labels); err != nil {
				cli.Fail("%v", err)
			}
		}
		// Process-wide counters (pcc code-cache hits/misses, tier
		// promotions, ...) are not scoped to any tracer; export them once.
		if err := obs.WriteGlobalPrometheus(dst, labels); err != nil {
			cli.Fail("%v", err)
		}
	case "json":
		if err := report.Write(dst); err != nil {
			cli.Fail("%v", err)
		}
	}
	if err := dst.Close(); err != nil {
		cli.Fail("%v", err)
	}
}
