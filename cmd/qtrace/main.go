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
	"io"
	"os"
	"strings"

	"qcc/internal/backend"
	"qcc/internal/bench"
	"qcc/internal/obs"
	"qcc/internal/vt"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qtrace: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	arch := vt.VX64
	flag.Var(&arch, "arch", "target architecture: vx64 (default) or va64")
	workload := flag.String("workload", "tpch", "workload (tpch or tpcds)")
	query := flag.String("query", "", "trace only this query (default: all queries of the workload)")
	engine := flag.String("engine", "all", "engine name or substring (e.g. \"cranelift\", \"llvm cheap\"), or \"all\"")
	sf := flag.Float64("sf", 0.01, "scale factor")
	mem := flag.Int("mem", 512, "VM memory in MiB")
	runs := flag.Int("runs", 1, "execution repetitions (best-of)")
	allocs := flag.Bool("allocs", false, "capture per-span heap allocation deltas (slows compilation; off by default)")
	check := flag.Bool("check", false, "run the machine-code verifier on every compilation (adds Check.* spans)")
	jobs := flag.Int("jobs", 1, "parallel compilation workers, like qbench/qverify (1 = sequential)")
	cacheMB := flag.Int("cache-mb", 0, "content-addressed code cache budget in MiB (0 = disabled); hit/miss counts appear in -format prom/json output")
	noFuse := flag.Bool("nofuse", false, "disable vm superinstruction fusion (plain decoded-switch dispatch)")
	execJobs := flag.Int("exec-jobs", 1, "morsel-parallel executor workers (1 = sequential)")
	batchOn := flag.Bool("batch", false, "compile eligible scan pipelines to batch-at-a-time kernels (default on when -exec-jobs > 1)")
	noBatch := flag.Bool("nobatch", false, "force tuple-at-a-time execution even with -exec-jobs > 1")
	format := flag.String("format", "chrome", "output format: chrome, prom, or json")
	out := flag.String("o", "-", "output file (\"-\" for stdout)")
	flag.Parse()

	switch *format {
	case "chrome", "prom", "json":
	default:
		fail("unknown format %q (want chrome, prom, or json)", *format)
	}

	cfg := bench.DefaultConfig()
	cfg.SF = *sf
	cfg.MemMB = *mem
	cfg.Runs = *runs
	cfg.Check = *check
	cfg.Jobs = *jobs
	cfg.CacheMB = *cacheMB
	cfg.NoFuse = *noFuse
	cfg.ExecJobs = *execJobs
	cfg.Batch = *execJobs > 1
	if *batchOn {
		cfg.Batch = true
	}
	if *noBatch {
		cfg.Batch = false
	}
	cfg.Arch = arch

	var queries []bench.Query
	switch *workload {
	case "tpch":
		queries = bench.HQueries()
	case "tpcds":
		queries = bench.DSQueries()
	default:
		fail("unknown workload %q", *workload)
	}
	if *query != "" {
		var sel []bench.Query
		for _, q := range queries {
			if strings.EqualFold(q.Name, *query) {
				sel = append(sel, q)
			}
		}
		if len(sel) == 0 {
			var names []string
			for _, q := range queries {
				names = append(names, q.Name)
			}
			fail("query %q not in %s (have: %s)", *query, *workload, strings.Join(names, " "))
		}
		queries = sel
	}

	var engines []backend.Engine
	for _, e := range bench.Engines(cfg.Arch) {
		if *engine == "all" || strings.Contains(strings.ToLower(e.Name()), strings.ToLower(*engine)) {
			// WrapEngine applies -jobs (parallel driver) and the code
			// cache, so traces cover the same configurations CI runs.
			engines = append(engines, cfg.WrapEngine(e, cfg.NewCodeCache()))
		}
	}
	if len(engines) == 0 {
		fail("no engine matches %q", *engine)
	}

	// Open the destination before the capture so a bad path fails fast.
	var dst io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		dst = f
	}

	// Trace: one tracer (hence one Chrome-trace process) per engine, each
	// running the selected queries on a fresh world.
	var traces []*obs.Trace
	report := &obs.Report{
		Schema: obs.Schema, Arch: cfg.Arch.String(),
		Workload: *workload, SF: cfg.SF, Jobs: *jobs, Engines: []obs.EngineReport{},
	}
	for _, eng := range engines {
		w, err := bench.NewWorldLoaded(cfg, *workload)
		if err != nil {
			fail("load %s: %v", *workload, err)
		}
		tr := obs.New(obs.Options{Allocs: *allocs})
		run, err := bench.RunSuiteExec(w, eng, cfg.Arch, queries, cfg.Runs, tr, cfg.BackendOptions(), cfg.ExecSettings())
		if err != nil {
			fail("%v", err)
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

	switch *format {
	case "chrome":
		if err := obs.WriteChrome(dst, traces...); err != nil {
			fail("%v", err)
		}
	case "prom":
		labels := map[string]string{"arch": cfg.Arch.String(), "workload": *workload}
		for _, tr := range traces {
			if err := tr.WritePrometheus(dst, labels); err != nil {
				fail("%v", err)
			}
		}
		// Process-wide counters (pcc code-cache hits/misses, tier
		// promotions, ...) are not scoped to any tracer; export them once.
		if err := obs.WriteGlobalPrometheus(dst, labels); err != nil {
			fail("%v", err)
		}
	case "json":
		if err := report.Write(dst); err != nil {
			fail("%v", err)
		}
	default:
		fail("unknown format %q (want chrome, prom, or json)", *format)
	}
}
