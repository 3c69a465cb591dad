// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation over the synthetic TPC-DS and TPC-H
// workloads and the virtual targets. Absolute numbers differ from the
// paper's hardware, but the comparisons (who is faster, by what factor) are
// the reproduction target; EXPERIMENTS.md records both.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"qcc/internal/backend"
	"qcc/internal/backend/cbe"
	"qcc/internal/backend/clift"
	"qcc/internal/backend/direct"
	"qcc/internal/backend/interp"
	"qcc/internal/backend/lbe"
	"qcc/internal/backend/pcc"
	"qcc/internal/codegen"
	"qcc/internal/obs"
	"qcc/internal/plan"
	"qcc/internal/rt"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// Config selects workload size and target.
type Config struct {
	Arch vt.Arch
	// SF is the scale factor (see tpcds.Rows / tpch rows for absolute
	// sizes). The paper's SF10/SF100 are far beyond laptop scale; the
	// defaults preserve the relative trends.
	SF float64
	// MemMB sizes the virtual machine memory.
	MemMB int
	// Runs averages execution measurements over this many repetitions.
	Runs int
	// Check runs the machine-code verifier (internal/mcv) on every
	// compilation; its cost shows up as the back-ends' "Check.*" phases.
	Check bool
	// Jobs is the worker count of the parallel compilation driver
	// (internal/backend/pcc). 0 or 1 compiles sequentially — the
	// measurement configuration identical to the seed benchmarks.
	Jobs int
	// CacheMB sizes the content-addressed code cache in MiB per engine;
	// 0 disables caching.
	CacheMB int
	// NoFuse disables the vm's superinstruction fusion, running compiled
	// modules through the plain decoded-switch dispatch loop. Results and
	// architecture-neutral counters are identical either way; only
	// dispatch cost changes.
	NoFuse bool
	// ExecJobs is the morsel-parallel executor's worker count. 0 or 1
	// executes every pipeline sequentially — the seed execution path.
	ExecJobs int
	// Batch compiles eligible scan pipelines to batch-at-a-time kernel
	// calls instead of tuple-at-a-time loops. Results are identical
	// (enforced by the parallel differential); only execution cost and the
	// rt_batch_* counters change.
	Batch bool
}

// ExecSettings returns the executor configuration for suite runs.
func (c Config) ExecSettings() ExecSettings {
	return ExecSettings{Jobs: c.ExecJobs, Batch: c.Batch}
}

// ExecSettings selects how compiled queries execute: tuple-at-a-time
// sequential (zero value, the seed path), batch kernels, and/or the
// morsel-parallel executor.
type ExecSettings struct {
	Jobs  int
	Batch bool
}

// NewCodeCache returns the configured code cache (nil when disabled).
func (c Config) NewCodeCache() *pcc.Cache {
	if c.CacheMB <= 0 {
		return nil
	}
	return pcc.NewCache(int64(c.CacheMB) << 20)
}

// WrapEngine applies the parallel driver to one engine per the config. With
// Jobs <= 1 and no cache the engine is returned unchanged, so the default
// configuration measures the exact seed code path.
func (c Config) WrapEngine(eng backend.Engine, cache *pcc.Cache) backend.Engine {
	jobs := c.Jobs
	if jobs <= 0 {
		jobs = 1
	}
	if jobs == 1 && cache == nil {
		return eng
	}
	// The check-elimination pass version participates in cache keys:
	// entries compiled under different elimination semantics (different
	// unchecked marks for identical QIR inputs) must never collide.
	return pcc.Wrap(eng, pcc.Config{Jobs: jobs, Cache: cache, VariantTag: codegen.CheckElimVersion})
}

// BackendOptions translates the config into per-compilation options.
func (c Config) BackendOptions() backend.Options {
	return backend.Options{Check: c.Check, NoFuse: c.NoFuse}
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config {
	return Config{Arch: vt.VX64, SF: 0.05, MemMB: 384, Runs: 1}
}

// Query is a named plan builder (both workloads satisfy it).
type Query struct {
	Name  string
	Build func() plan.Node
}

// World is a loaded database.
type World struct {
	DB  *rt.DB
	Cat *rt.Catalog
}

// NewWorld creates a machine of the configured size.
func NewWorld(cfg Config) *World {
	m := vm.New(vm.Config{Arch: cfg.Arch, MemSize: cfg.MemMB << 20})
	db := rt.NewDB(m)
	return &World{DB: db, Cat: rt.NewCatalog(db)}
}

// Report is a rendered experiment result.
type Report struct {
	Title string
	Lines []string
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	sb.WriteString(r.Title)
	sb.WriteByte('\n')
	sb.WriteString(strings.Repeat("=", len(r.Title)))
	sb.WriteByte('\n')
	for _, l := range r.Lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// QueryMeasurement is one query's compile and execute outcome.
type QueryMeasurement struct {
	Name     string
	Compile  time.Duration
	Exec     time.Duration
	Rows     int
	Executed int64 // VM instructions
	Branches int64 // VM branch instructions
	MemOps   int64 // VM loads + stores
	// FuseInstrs/FuseMicroOps record the module's superinstruction fusion
	// outcome (decoded instructions vs primary-path micro-ops); both are 0
	// for the interpreter or when fusion is disabled. The fusion rate is
	// FuseMicroOps/FuseInstrs.
	FuseInstrs   int64
	FuseMicroOps int64
	// StaticMemOps/ChecksElim summarize the compile-time check-elimination
	// pass over the query's QIR: static loads+stores vs how many had their
	// bounds/null check discharged. LintFindings counts sa diagnostics
	// (expected 0 for generated code); AnalysisNs is analysis+rewrite time.
	StaticMemOps int
	ChecksElim   int
	LintFindings int
	AnalysisNs   int64
}

// EngineRun is the per-engine outcome over a suite.
type EngineRun struct {
	Engine  string
	Stats   *backend.Stats
	Queries []QueryMeasurement
	Compile time.Duration
	Exec    time.Duration
}

// RunSuiteBest runs RunSuite `times` times on fresh worlds and returns the
// run with the lowest total compile time (best-of-N absorbs scheduler and
// allocator noise on shared machines, like the paper's 20-run averages).
func RunSuiteBest(times int, mkWorld func() (*World, error), eng backend.Engine, arch vt.Arch, queries []Query, runs int) (*EngineRun, error) {
	if times < 1 {
		times = 1
	}
	var best *EngineRun
	for i := 0; i < times; i++ {
		w, err := mkWorld()
		if err != nil {
			return nil, err
		}
		r, err := RunSuite(w, eng, arch, queries, runs)
		if err != nil {
			return nil, err
		}
		if best == nil || r.Stats.WallClock() < best.Stats.WallClock() {
			best = r
		}
	}
	return best, nil
}

// RunSuite compiles and executes every query with one engine, resetting
// query state between queries.
func RunSuite(w *World, eng backend.Engine, arch vt.Arch, queries []Query, runs int) (*EngineRun, error) {
	return RunSuiteTraced(w, eng, arch, queries, runs, nil, backend.Options{})
}

// RunSuiteTraced is RunSuite with an optional tracer attached to every
// compilation: each query's compile appears as a "query:<name>" group with
// the back-end's nested phase spans beneath it, and execution as an "exec"
// span. A nil tracer and zero options is RunSuite. opts.Check makes every
// compilation run the machine-code verifier.
func RunSuiteTraced(w *World, eng backend.Engine, arch vt.Arch, queries []Query, runs int, tr *obs.Tracer, opts backend.Options) (*EngineRun, error) {
	return RunSuiteExec(w, eng, arch, queries, runs, tr, opts, ExecSettings{})
}

// RunSuiteExec is RunSuiteTraced with executor settings: es.Batch compiles
// eligible pipelines to batch kernels and es.Jobs > 1 executes table
// pipelines through the morsel-parallel executor (falling back to
// sequential where a pipeline is ineligible or the engine produces no vm
// module). Queries compile as qc.DB compiles them, with check elimination
// and constant hoisting. The zero ExecSettings is exactly RunSuiteTraced.
func RunSuiteExec(w *World, eng backend.Engine, arch vt.Arch, queries []Query, runs int, tr *obs.Tracer, opts backend.Options, es ExecSettings) (*EngineRun, error) {
	if runs < 1 {
		runs = 1
	}
	out := &EngineRun{Engine: eng.Name(), Stats: &backend.Stats{}}
	// Persistent executor workers: arenas carved below the checkpoint mark
	// survive the per-query ResetToCheckpoint, so RunParallel re-arms them
	// instead of rebuilding machines and runtimes for every query.
	pool := codegen.NewExecPool(w.DB, es.Jobs)
	w.DB.Checkpoint()
	for _, q := range queries {
		qsp := tr.BeginCat("query:"+q.Name, "query")
		c, err := codegen.CompileOpts(q.Name, q.Build(), w.Cat,
			codegen.Options{Elim: true, Hoist: true, Batch: es.Batch, Parallel: es.Jobs > 1})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", eng.Name(), q.Name, err)
		}
		ex, stats, err := eng.Compile(c.Module, &backend.Env{DB: w.DB, Arch: arch, Trace: tr, Options: opts})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", eng.Name(), q.Name, err)
		}
		// Mirror the back-end's event counters into the trace so exports
		// show them as counter tracks alongside the spans.
		for name, v := range stats.Counters {
			tr.Add(name, v)
		}
		out.Stats.Merge(stats)
		var mod *vm.Module
		if mh, ok := ex.(interface{ Module() *vm.Module }); ok {
			mod = mh.Module()
		}
		var best time.Duration
		var rows int
		var executed, branches, memops int64
		// Worker arenas allocated by the parallel executor unwind with this
		// mark between repetitions (ResetQueryState alone keeps the heap).
		mark := w.DB.M.HeapMark()
		for r := 0; r < runs; r++ {
			w.DB.ResetQueryState()
			w.DB.M.ResetHeapTo(mark)
			startInstr := w.DB.M.Executed
			startBranch := w.DB.M.Branches
			startMem := w.DB.M.MemOps
			esp := tr.BeginCat("exec", "exec")
			start := time.Now()
			err := codegen.RunParallel(w.DB, w.Cat, c, ex.Call,
				codegen.ExecOptions{Jobs: es.Jobs, Module: mod, Pool: pool})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: run: %w", eng.Name(), q.Name, err)
			}
			d := time.Since(start)
			esp.End()
			if r == 0 || d < best {
				best = d
			}
			rows = w.DB.Out.NumRows()
			executed = w.DB.M.Executed - startInstr
			branches = w.DB.M.Branches - startBranch
			memops = w.DB.M.MemOps - startMem
		}
		qsp.End()
		var fuseInstrs, fuseMicro int64
		if mod != nil && mod.FuseEnabled() {
			fs := mod.FuseStats()
			fuseInstrs, fuseMicro = int64(fs.Instrs), int64(fs.MicroOps)
		}
		out.Queries = append(out.Queries, QueryMeasurement{
			// WallClock: elapsed compile time — equals stats.Total for
			// sequential compiles, the true elapsed time under the
			// parallel driver (where the phase sum overstates it).
			Name: q.Name, Compile: stats.WallClock(), Exec: best, Rows: rows,
			Executed: executed, Branches: branches, MemOps: memops,
			FuseInstrs: fuseInstrs, FuseMicroOps: fuseMicro,
			StaticMemOps: c.Elim.MemOps, ChecksElim: c.Elim.Unchecked,
			LintFindings: len(c.Elim.Findings), AnalysisNs: c.Elim.AnalysisNs,
		})
		out.Compile += stats.WallClock()
		out.Exec += best
		w.DB.ResetToCheckpoint()
	}
	return out, nil
}

// fmtDur renders a duration in milliseconds with fixed precision.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%8.2f ms", float64(d.Microseconds())/1000)
}

// phaseTable renders a stats phase breakdown sorted by share.
func phaseTable(r *Report, s *backend.Stats) {
	total := s.Total
	if total == 0 {
		for _, p := range s.Phases {
			total += p.Dur
		}
	}
	phases := append([]backend.Phase{}, s.Phases...)
	sort.Slice(phases, func(i, j int) bool { return phases[i].Dur > phases[j].Dur })
	for _, p := range phases {
		share := 0.0
		if total > 0 {
			share = 100 * float64(p.Dur) / float64(total)
		}
		r.addf("  %-24s %s  %5.1f%%", p.Name, fmtDur(p.Dur), share)
	}
	r.addf("  %-24s %s", "TOTAL", fmtDur(total))
}

// Engines returns the standard engine lineup for a target (Table III order).
func Engines(arch vt.Arch) []backend.Engine {
	es := []backend.Engine{interp.New()}
	if arch == vt.VX64 {
		es = append(es, direct.New())
	}
	es = append(es, clift.New(), lbe.NewCheap(), lbe.NewOpt(), cbe.New())
	return es
}
