// Command qlint runs the QIR static-analysis framework (internal/sa) over a
// compiled workload and reports its diagnostics and check-elimination
// statistics: unreachable blocks, dead stores, always-trapping accesses,
// range contradictions, and per-query counts of bounds/null checks the
// analysis discharged at compile time.
//
// Generated query code is expected to lint clean: any finding means either a
// codegen bug or an analysis regression, so qlint exits non-zero when one
// appears (the ci gate relies on this).
//
// Usage:
//
//	qlint [-arch vx64|va64] [-workload tpch|tpcds|all] [-sf 0.01] [-mem 512]
//	      [-json] [-v]
//
// -json emits one machine-readable document on stdout instead of the table.
// -v additionally lists every eliminated access reason per query.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"qcc/internal/bench"
	"qcc/internal/codegen"
	"qcc/internal/qir"
	"qcc/internal/vt"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qlint: "+format+"\n", args...)
	os.Exit(1)
}

// queryReport is one query's lint + elimination summary.
type queryReport struct {
	Query      string         `json:"query"`
	Workload   string         `json:"workload"`
	MemOps     int            `json:"mem_ops"`
	Eliminated int            `json:"checks_eliminated"`
	Ratio      float64        `json:"elim_ratio"`
	ByReason   map[string]int `json:"by_reason,omitempty"`
	MaxLive    int            `json:"max_live"`
	AnalysisNs int64          `json:"analysis_ns"`
	Findings   []string       `json:"findings,omitempty"`
}

// maxLive is the register-pressure statistic: the maximum number of
// simultaneously live SSA values at any instruction boundary of any
// function in m.
func maxLive(m *qir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n = max(n, f.MaxLiveValues(f.LivenessAnalysis()))
	}
	return n
}

type report struct {
	Arch        string        `json:"arch"`
	SF          float64       `json:"sf"`
	ElimVersion string        `json:"elim_version"`
	Queries     []queryReport `json:"queries"`
	TotalMemOps int           `json:"total_mem_ops"`
	TotalElim   int           `json:"total_checks_eliminated"`
	TotalFinds  int           `json:"total_findings"`
}

func main() {
	archFlag := flag.String("arch", "vx64", "target architecture (vx64 or va64)")
	workload := flag.String("workload", "tpch", "workload (tpch, tpcds, or all)")
	sf := flag.Float64("sf", 0.01, "scale factor")
	mem := flag.Int("mem", 512, "VM memory in MiB")
	asJSON := flag.Bool("json", false, "emit JSON instead of a table")
	verbose := flag.Bool("v", false, "list per-reason elimination counts")
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.SF = *sf
	cfg.MemMB = *mem
	switch *archFlag {
	case "vx64":
		cfg.Arch = vt.VX64
	case "va64":
		cfg.Arch = vt.VA64
	default:
		fail("unknown arch %q", *archFlag)
	}

	var workloads []string
	switch *workload {
	case "tpch", "tpcds":
		workloads = []string{*workload}
	case "all":
		workloads = []string{"tpch", "tpcds"}
	default:
		fail("unknown workload %q", *workload)
	}

	rep := report{Arch: cfg.Arch.String(), SF: cfg.SF, ElimVersion: codegen.CheckElimVersion}
	for _, wl := range workloads {
		w, err := bench.NewWorldLoaded(cfg, wl)
		if err != nil {
			fail("load %s: %v", wl, err)
		}
		queries := bench.HQueries()
		if wl == "tpcds" {
			queries = bench.DSQueries()
		}
		for _, q := range queries {
			c, err := codegen.Compile(q.Name, q.Build(), w.Cat)
			if err != nil {
				fail("codegen %s: %v", q.Name, err)
			}
			qr := queryReport{
				Query:      q.Name,
				Workload:   wl,
				MemOps:     c.Elim.MemOps,
				Eliminated: c.Elim.Unchecked,
				Ratio:      c.Elim.Ratio(),
				ByReason:   c.Elim.ByReason,
				MaxLive:    maxLive(c.Module),
				AnalysisNs: c.Elim.AnalysisNs,
			}
			for _, f := range c.Elim.Findings {
				qr.Findings = append(qr.Findings, f.String())
			}
			rep.Queries = append(rep.Queries, qr)
			rep.TotalMemOps += qr.MemOps
			rep.TotalElim += qr.Eliminated
			rep.TotalFinds += len(qr.Findings)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			fail("encode: %v", err)
		}
	} else {
		fmt.Printf("qlint: %s sf=%g elim=%s\n", rep.Arch, rep.SF, rep.ElimVersion)
		fmt.Printf("%-12s %8s %8s %7s %8s %9s\n", "query", "memops", "elim", "ratio", "maxlive", "findings")
		for _, qr := range rep.Queries {
			fmt.Printf("%-12s %8d %8d %6.1f%% %8d %9d\n",
				qr.Workload+"/"+qr.Query, qr.MemOps, qr.Eliminated, 100*qr.Ratio, qr.MaxLive, len(qr.Findings))
			if *verbose {
				reasons := make([]string, 0, len(qr.ByReason))
				for r := range qr.ByReason {
					reasons = append(reasons, r)
				}
				sort.Strings(reasons)
				for _, r := range reasons {
					fmt.Printf("             %-20s %d\n", r, qr.ByReason[r])
				}
			}
		}
		ratio := 0.0
		if rep.TotalMemOps > 0 {
			ratio = float64(rep.TotalElim) / float64(rep.TotalMemOps)
		}
		fmt.Printf("qlint: total %d/%d checks eliminated (%.1f%%), %d findings\n",
			rep.TotalElim, rep.TotalMemOps, 100*ratio, rep.TotalFinds)
	}

	if rep.TotalFinds > 0 {
		for _, qr := range rep.Queries {
			for _, f := range qr.Findings {
				fmt.Fprintf(os.Stderr, "qlint: %s/%s: %s\n", qr.Workload, qr.Query, f)
			}
		}
		fail("%d unexpected findings in generated code", rep.TotalFinds)
	}
}
