package codegen

import (
	"time"

	"qcc/internal/obs"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/sa"
)

// CheckElimVersion tags the check-elimination pass for code-cache keying:
// the unchecked marks live in instruction Aux bits (hashed by unit keys
// already), and this version string lets cache consumers invalidate entries
// when the pass semantics themselves change. Bump on any change to the facts
// derivation or the safety proofs.
const CheckElimVersion = "sace2"

var (
	obsMemOps      = obs.NewCounter("sa.mem_ops")
	obsChecksElim  = obs.NewCounter("sa.checks_eliminated")
	obsLintFinds   = obs.NewCounter("sa.lint_findings")
	obsAnalysisNs  = obs.NewCounter("sa.analysis_ns")
	obsElimModules = obs.NewCounter("sa.modules_analyzed")
)

// ElimStats summarizes the static check-elimination pass over one module.
type ElimStats struct {
	// Enabled records whether the pass ran at all.
	Enabled bool
	// MemOps is the number of loads and stores in the module.
	MemOps int
	// Unchecked is how many of them were proven safe and marked.
	Unchecked int
	// ByReason counts eliminations per proof kind
	// (region/absolute/redundant).
	ByReason map[string]int
	// Findings holds the lint diagnostics the analysis produced as a side
	// effect; generated code is expected to produce none.
	Findings []sa.Finding
	// AnalysisNs is wall time spent in the analysis and rewrite, including
	// the hoisting pass's widened analyses that were reused as verdicts.
	AnalysisNs int64
}

// Ratio returns the eliminated fraction of static memory checks.
func (s ElimStats) Ratio() float64 {
	if s.MemOps == 0 {
		return 0
	}
	return float64(s.Unchecked) / float64(s.MemOps)
}

// moduleRegions collects the absolute valid regions the catalog guarantees
// for the whole query: every column array of every loaded table.
func moduleRegions(cat *rt.Catalog) []sa.Region {
	if cat == nil {
		return nil
	}
	var regs []sa.Region
	for _, t := range cat.Tables {
		for i := range t.Cols {
			col := &t.Cols[i]
			size := t.Rows * col.Type.Size()
			if size <= 0 {
				continue
			}
			regs = append(regs, sa.Region{Base: int64(col.Base), Size: size})
		}
	}
	return regs
}

// notePtrFact records a runtime pointer contract for a value the code
// generator just emitted: v points at [v-pre, v+post) valid bytes whenever
// it is non-null (maybeNull=false additionally promises it never is).
func (c *Compiler) notePtrFact(b *qir.Builder, v qir.Value, pre, post int64, maybeNull bool) {
	f := b.Func()
	if c.out.ValFacts == nil {
		c.out.ValFacts = make(map[*qir.Func]map[qir.Value]sa.PtrFact)
	}
	m := c.out.ValFacts[f]
	if m == nil {
		m = make(map[qir.Value]sa.PtrFact)
		c.out.ValFacts[f] = m
	}
	m[v] = sa.PtrFact{Pre: pre, Post: post, MaybeNull: maybeNull}
}

// factsFor derives the sa.Facts for generated function fi from the driver
// contract: setup/main/cleanup receive the query state pointer (StateSize
// valid bytes) as parameter 0, and main's morsel bounds satisfy
// 0 <= lo <= hi <= rows(source). Comparator row pointers and hash-table
// entry pointers are covered by the ValFacts the generator recorded.
func (c *Compiled) factsFor(fi int, regions []sa.Region, cat *rt.Catalog) *sa.Facts {
	facts := sa.NewFacts()
	facts.Regions = regions
	facts.ValFacts = c.ValFacts[c.Module.Funcs[fi]]
	for pi := range c.Pipelines {
		p := &c.Pipelines[pi]
		if fi != p.SetupFn && fi != p.MainFn && fi != p.CleanupFn {
			continue
		}
		facts.ParamRegion = []int64{c.StateSize}
		if fi == p.MainFn {
			bound := sa.Interval{Lo: 0, Hi: sa.PosInf}
			if p.Source == SrcTable && cat != nil {
				if t, err := cat.Table(p.Table); err == nil {
					bound = sa.Interval{Lo: 0, Hi: t.Rows}
				}
			}
			facts.ParamRange = []sa.Interval{{}, bound, bound}
		}
		break
	}
	return facts
}

// funcElim is one function's check-elimination verdict: the classified
// memory accesses and lint findings of one sa analysis under the
// eliminator's facts, and the wall time that analysis took.
type funcElim struct {
	accs     []sa.Access
	findings []sa.Finding
	ns       int64
}

// analyzeElim runs the sa analysis of f under facts and records its verdict.
func analyzeElim(f *qir.Func, facts *sa.Facts) *funcElim {
	start := time.Now()
	a := sa.Analyze(f, facts)
	fe := &funcElim{accs: a.Accesses(), findings: a.Lint()}
	fe.ns = time.Since(start).Nanoseconds()
	return fe
}

// safe counts the accesses the verdict proves safe.
func (fe *funcElim) safe() int {
	n := 0
	for _, acc := range fe.accs {
		if acc.Safe {
			n++
		}
	}
	return n
}

// eliminateChecks marks the statically proven loads/stores of every
// generated function with qir.MemUnchecked so that every back-end (and the
// interpreter) lowers them without bounds or null checks. reuse[fi], when
// present, is a verdict the hoisting pass already computed for function fi
// in its final form; every other function is analysed here.
func (c *Compiled) eliminateChecks(cat *rt.Catalog, reuse []*funcElim) {
	start := time.Now()
	stats := ElimStats{Enabled: true, ByReason: map[string]int{}}
	regions := moduleRegions(cat)
	var reusedNs int64
	for fi, f := range c.Module.Funcs {
		var fe *funcElim
		if fi < len(reuse) && reuse[fi] != nil {
			fe = reuse[fi]
			reusedNs += fe.ns
		} else {
			fe = analyzeElim(f, c.factsFor(fi, regions, cat))
		}
		for _, acc := range fe.accs {
			stats.MemOps++
			if !acc.Safe {
				continue
			}
			f.Instrs[acc.V].SetUnchecked()
			stats.Unchecked++
			stats.ByReason[acc.Reason]++
		}
		stats.Findings = append(stats.Findings, fe.findings...)
	}
	stats.AnalysisNs = time.Since(start).Nanoseconds() + reusedNs
	c.Elim = stats

	obsElimModules.Inc()
	obsMemOps.Add(int64(stats.MemOps))
	obsChecksElim.Add(int64(stats.Unchecked))
	obsLintFinds.Add(int64(len(stats.Findings)))
	obsAnalysisNs.Add(stats.AnalysisNs)
}

// Analyses returns a fresh sa.Analysis per function under the same facts the
// check-elimination pass used — for linters and verifiers that want the raw
// findings and statistics rather than the rewrite.
func (c *Compiled) Analyses(cat *rt.Catalog) []*sa.Analysis {
	regions := moduleRegions(cat)
	out := make([]*sa.Analysis, len(c.Module.Funcs))
	for fi, f := range c.Module.Funcs {
		out[fi] = sa.Analyze(f, c.factsFor(fi, regions, cat))
	}
	return out
}

// UncheckedCount counts the loads/stores in f currently marked unchecked.
func UncheckedCount(f *qir.Func) int {
	n := 0
	for i := range f.Instrs {
		if f.Instrs[i].Unchecked() {
			n++
		}
	}
	return n
}
