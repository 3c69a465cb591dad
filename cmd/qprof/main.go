// Command qprof captures, merges, and renders source-attributed VM
// execution profiles (internal/prof): sampled VM time mapped back through
// the back-end PC-range tables and the codegen provenance tables to named
// plan operators and SQL fragments.
//
// Usage:
//
//	qprof [-arch vx64|va64] [-workload tpch|tpcds] [-query q1] [-engine name]
//	      [-sf 0.01] [-mem 512] [-runs 1] [-period N] [-check] [-jobs N]
//	      [-nofuse] [-format top|json|pprof|chrome|qir] [-top 20] [-flight]
//	      [-o out] [profile.json ...]
//
// With no positional arguments qprof captures a fresh profile: it compiles
// the selected queries on one back-end, executes them with the dispatch-loop
// sampler attached, and renders the result. With positional arguments it
// merges previously captured -format json profiles and renders the merge
// (no execution). -engine picks the first matching engine whose code runs
// on the VM (not the interpreter: it has no VM code to sample). A profile
// without samples is an error (exit 1), not a rendering.
//
// Formats: top (flat per-operator table), json (qcc.prof/v1, qprof's own
// merge input), pprof (gzipped protobuf for `go tool pprof`), chrome
// (trace-event JSON for Perfetto; synthetic flame bar), qir (annotated QIR
// of the hottest functions; capture mode only).
//
// If a query traps, qprof dumps the always-on flight recorder — recent
// spans and samples — to stderr as a post-mortem before exiting; -flight
// dumps it after a successful run too.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"qcc/internal/backend"
	"qcc/internal/bench"
	"qcc/internal/cli"
	"qcc/internal/codegen"
	"qcc/internal/obs"
	"qcc/internal/prof"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

func main() {
	f := cli.Register(flag.CommandLine, cli.Defaults(), cli.Arch|cli.Workload|cli.SF|cli.Mem|cli.Runs|
		cli.Check|cli.Jobs|cli.NoFuse|cli.Out)
	query := flag.String("query", "", "profile only this query (default: all queries of the workload)")
	engine := flag.String("engine", "", "engine name or substring; default: first compiling engine of the arch")
	period := flag.Int64("period", 0, "sampling period in executed VM instructions (0 = default)")
	format := cli.ChoiceVar(flag.CommandLine, "format", "output format", "top", "json", "pprof", "chrome", "qir")
	topN := flag.Int("top", 20, "row limit for -format top/qir")
	flight := flag.Bool("flight", false, "dump the flight recorder to stderr after the run")
	flag.Parse()
	cfg := f.Config()

	dst, err := cli.Create(f.Out)
	if err != nil {
		cli.Fail("%v", err)
	}

	// Merge mode: positional args are qcc.prof/v1 files.
	if files := flag.Args(); len(files) > 0 {
		if format.Value == "qir" {
			cli.Fail("-format qir needs the compiled module; it is capture-only")
		}
		var merged *prof.Profile
		for _, path := range files {
			in, err := os.Open(path)
			if err != nil {
				cli.Fail("%v", err)
			}
			p, err := prof.ReadJSON(in)
			in.Close()
			if err != nil {
				cli.Fail("%s: %v", path, err)
			}
			if merged == nil {
				merged = p
			} else {
				merged.Merge(p)
			}
		}
		render(dst, merged, nil, format.Value, *topN)
		return
	}

	queries, err := cli.Queries(f.Workload.Value, *query)
	if err != nil {
		cli.Fail("%v", err)
	}
	if format.Value == "qir" && len(queries) != 1 {
		cli.Fail("-format qir needs a single -query")
	}

	eng := pickEngine(cfg.Arch, *engine)
	if eng == nil {
		cli.Fail("no engine with a VM module matches %q on %s", *engine, cfg.Arch)
	}
	eng = cfg.WrapEngine(eng, cfg.NewCodeCache())
	w, err := bench.NewWorldLoaded(cfg, f.Workload.Value)
	if err != nil {
		cli.Fail("load %s: %v", f.Workload.Value, err)
	}

	var merged *prof.Profile
	var qmodForQIR *codegen.Compiled
	w.DB.Checkpoint()
	for _, q := range queries {
		c, err := codegen.Compile(q.Name, q.Build(), w.Cat)
		if err != nil {
			cli.Fail("%s: %v", q.Name, err)
		}
		ex, _, err := eng.Compile(c.Module, &backend.Env{DB: w.DB, Arch: cfg.Arch, Options: cfg.BackendOptions()})
		if err != nil {
			cli.Fail("%s: %v", q.Name, err)
		}
		col := prof.NewCollector(c.Module)
		smp := &vm.Sampler{Period: *period, Hit: col.Hit}
		for r := 0; r < cfg.Runs; r++ {
			w.DB.ResetQueryState()
			w.DB.M.SetSampler(smp)
			err := codegen.Run(w.DB, w.Cat, c, ex.Call)
			w.DB.M.SetSampler(nil)
			if err != nil {
				// Post-mortem: the flight recorder holds the tail of the
				// crashing run (recent spans, samples, and the trap).
				fmt.Fprintf(os.Stderr, "qprof: %s: %v\n", q.Name, err)
				fmt.Fprintln(os.Stderr, "qprof: flight recorder dump:")
				obs.FlightRec().WriteText(os.Stderr)
				os.Exit(1)
			}
		}
		p := col.Profile(cfg.Arch.String(), q.Name, smp)
		if merged == nil {
			merged = p
		} else {
			merged.Merge(p)
		}
		qmodForQIR = c
		w.DB.ResetToCheckpoint()
	}
	if *flight {
		fmt.Fprintln(os.Stderr, "qprof: flight recorder dump:")
		obs.FlightRec().WriteText(os.Stderr)
	}
	render(dst, merged, qmodForQIR, format.Value, *topN)
}

// pickEngine selects the capture back-end: the first engine matching name
// whose executables expose a VM module (samples need PC ranges).
func pickEngine(arch vt.Arch, name string) backend.Engine {
	engines, _ := cli.Engines(arch, name) // no match leaves none to pick
	for _, e := range engines {
		if !strings.Contains(strings.ToLower(e.Name()), "interp") {
			return e
		}
	}
	return nil
}

func render(dst io.WriteCloser, p *prof.Profile, c *codegen.Compiled, format string, topN int) {
	// An empty capture would render as "100% attributed" (the
	// AttributionRate of an empty profile), so it is a failure.
	if p == nil || p.Samples == 0 {
		cli.Fail("nothing sampled")
	}
	var err error
	switch format {
	case "top":
		err = p.WriteTop(dst, topN)
	case "json":
		err = p.WriteJSON(dst)
	case "pprof":
		err = p.WritePprof(dst)
	case "chrome":
		err = p.WriteChrome(dst)
	case "qir":
		err = p.WriteAnnotated(dst, c.Module, topN)
	}
	if err == nil {
		err = dst.Close()
	}
	if err != nil {
		cli.Fail("%v", err)
	}
}
