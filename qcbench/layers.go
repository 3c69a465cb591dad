package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"qcc"
	"qcc/internal/obs"
)

// spec names one metric and its unit.
type spec struct{ name, unit string }

// enginePhases lists the top-level compile phases each engine reports in
// backend.Stats.Phases (pcc's Cache.* phases belong to the pcc layer).
var enginePhases = map[string][]string{
	"interpreter": {"Translate"},
	"directemit":  {"Analysis", "Codegen", "Emit"},
	"cranelift":   {"IRGen", "IRPasses", "ISelPrepare", "ISel", "RegAlloc.liveranges", "RegAlloc.merge", "RegAlloc.assign", "Emit", "Link"},
	"llvm-cheap":  {"TargetMachine", "IRBuild", "IRPasses", "IRDestruct", "ISel", "OtherPasses", "RegAlloc", "PrologEpilog", "AsmPrinter", "ObjectEmission", "Linking"},
	"llvm-opt":    {"TargetMachine", "IRBuild", "IRPasses", "IRDestruct", "ISel", "OtherPasses", "RegAlloc", "PrologEpilog", "AsmPrinter", "ObjectEmission", "Linking"},
	"gcc":         {"Parse", "GenerateC", "Gimplify", "Optimize", "Codegen", "Assemble", "Link"},
	"adaptive":    {"Analysis", "Codegen", "Emit"},
}

// layerOrder is the order of the self-time table; "residual" is time in
// the query span outside every layer span.
var layerOrder = []string{"sql", "codegen", "sa", "backend", "pcc", "exec", "qc", "residual"}

// endToEndSpecs are the metrics of a --trace 0 run.
func endToEndSpecs() []spec {
	return []spec{
		{"setup_s", "s"},
		{"qps", "1/s"},
		{"latency_p50_ms", "ms"},
		{"latency_p90_ms", "ms"},
		{"alloc_kb_per_query", "KiB"},
	}
}

// layerSpecs are the metrics of a --trace 1 run. Every workload reports
// all of them; a layer the workload does not reach reads 0.
func layerSpecs() []spec {
	s := []spec{
		{"sql.parse_us", "us"},
		{"codegen.compile_us", "us"}, {"codegen.alloc_kb", "KiB"},
		{"codegen.qir_instrs", "count"}, {"codegen.funcs", "count"},
		{"sa.analysis_us", "us"}, {"sa.elim_ratio", "ratio"},
		{"hoist.hoisted", "count"}, {"hoist.kept_inline", "count"}, {"hoist.analysis_rounds", "count"},
	}
	for _, e := range qc.Engines() {
		s = append(s, spec{"backend." + e + ".compile_us", "us"})
		if e != "interpreter" {
			s = append(s, spec{"backend." + e + ".code_bytes", "bytes"})
		}
		s = append(s, spec{"backend." + e + ".alloc_kb", "KiB"})
		for _, p := range enginePhases[e] {
			s = append(s, spec{"backend." + e + ".phase." + p + "_us", "us"})
		}
	}
	s = append(s,
		spec{"clift.ra_spilled", "count"}, spec{"adaptive.tier_promotions", "count"},
		spec{"pcc.hit_rate", "ratio"}, spec{"pcc.lookup_us", "us"},
		spec{"pcc.entries", "count"}, spec{"pcc.bytes", "bytes"},
		spec{"exec.run_us", "us"}, spec{"exec.morsels", "count"},
		spec{"exec.workers_built", "ratio"}, spec{"vm.heap_growth_kb", "KiB"},
		spec{"vm.oom_after_queries", "count"},
		spec{"vm.instrs", "count"}, spec{"vm.branches", "count"}, spec{"vm.mem_ops", "count"},
		spec{"vm.fuse_rate", "ratio"},
		spec{"rt.batch_kernel_calls", "count"}, spec{"rt.batch_rows", "count"},
	)
	for _, l := range layerOrder {
		s = append(s, spec{"share." + l, "ratio"})
	}
	s = append(s,
		spec{"trace.coverage", "ratio"}, spec{"trace.overhead", "ratio"},
		spec{"qc.residual_us", "us"}, spec{"qc.reopens", "count"},
	)
	for _, e := range qc.Engines() {
		s = append(s, spec{"qps." + e, "1/s"})
	}
	return append(s, spec{"failed_frac", "ratio"})
}

// layerTable is the self time of every layer summed over the traced
// queries, with the traced wall time and the part of it layer spans cover.
type layerTable struct {
	self    map[string]time.Duration
	wall    time.Duration
	covered time.Duration
}

// selfTimes attributes every span's self time (its duration minus its
// children's) to the layer the span names; the root query span's self time
// is the residual. Two layers run inside another layer's span and are
// split off with the durations the program reports: sa inside codegen
// (Compiled.Elim.AnalysisNs) and pcc inside backend (the Cache.Lookup and
// Cache.Store phases).
func selfTimes(traces []*obs.Trace, qs []*tracedQuery) layerTable {
	lt := layerTable{self: map[string]time.Duration{}}
	for _, tr := range traces {
		childDur := make([]time.Duration, len(tr.Spans))
		for _, sp := range tr.Spans {
			if sp.Parent >= 0 {
				childDur[sp.Parent] += sp.Dur
			}
		}
		for i, sp := range tr.Spans {
			layer := "residual"
			if sp.Cat == "query" {
				lt.wall += sp.Dur
			} else {
				layer = spanLayer[sp.Name]
				lt.covered += sp.Dur
			}
			lt.self[layer] += sp.Dur - childDur[i]
		}
	}
	for _, q := range qs {
		if !q.ok {
			continue
		}
		sa := time.Duration(q.saNs)
		pcc := q.stats.PhaseDur("Cache.Lookup") + q.stats.PhaseDur("Cache.Store")
		lt.self["sa"] += sa
		lt.self["codegen"] -= sa
		lt.self["pcc"] += pcc
		lt.self["backend"] -= pcc
	}
	return lt
}

// spanLayer maps the benchmark's layer spans to layers.
var spanLayer = map[string]string{
	"sql": "sql", "codegen": "codegen", "backend": "backend", "exec": "exec", "result": "qc",
}

func (lt layerTable) share(l string) float64 {
	if lt.wall <= 0 {
		return 0
	}
	return float64(lt.self[l]) / float64(lt.wall)
}

func (lt layerTable) write(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n%-10s %12s %8s\n", title, "layer", "self_ms", "share")
	for _, l := range layerOrder {
		fmt.Fprintf(w, "%-10s %12.3f %7.1f%%\n", l, float64(lt.self[l])/1e6, 100*lt.share(l))
	}
	fmt.Fprintf(w, "%-10s %12.3f   coverage %.4f\n", "wall", float64(lt.wall)/1e6, float64(lt.covered)/float64(max(lt.wall, 1)))
}

// engineAgg sums per-engine traced figures.
type engineAgg struct {
	n                int
	compile, alloc   float64
	codeBytes        float64
	phases           map[string]float64
	spilled, promote int64
}

// layerMetrics turns the traced queries into the per-layer metrics.
// Per-query figures are means over the queries that succeeded.
func layerMetrics(qs []*tracedQuery, m *mirror, lt layerTable, untraced *loopStats, untracedP50 float64, reopens int) map[string]float64 {
	out := map[string]float64{}
	eng := map[string]*engineAgg{}
	for _, e := range qc.Engines() {
		eng[e] = &engineAgg{phases: map[string]float64{}}
	}
	var ok int
	var sum struct {
		parse, codegen, alloc, qir, funcs, sa float64
		memOps, elim                          int
		hoisted, kept, rounds                 float64
		hits, misses                          int64
		lookup, exec, morsels, workers, heap  float64
		instrs, branches, memops              float64
		calls, rows                           float64
		fuseMicro, fuseInstrs                 int64
	}
	var walls []float64
	for _, q := range qs {
		if !q.ok {
			continue
		}
		ok++
		walls = append(walls, q.wall.Seconds()*1e3)
		sum.parse += us(q.parse)
		sum.codegen += us(q.codegen)
		sum.alloc += float64(q.codegenAlloc) / 1024
		sum.qir += float64(q.qirInstrs)
		sum.funcs += float64(q.funcs)
		sum.sa += float64(q.saNs) / 1e3
		sum.memOps += q.memOps
		sum.elim += q.elim
		sum.hoisted += float64(q.hoisted)
		sum.kept += float64(q.kept)
		sum.rounds += float64(q.counterDeltas[ctrHoistRounds])
		sum.hits += q.hits
		sum.misses += q.misses
		sum.lookup += us(q.lookup)
		sum.exec += us(q.exec)
		sum.morsels += float64(q.counterDeltas[ctrMorsels])
		if q.counterDeltas[ctrWorkers] > 0 {
			sum.workers++
		}
		sum.heap += float64(q.heapGrowth) / 1024
		sum.instrs += float64(q.vmInstrs)
		sum.branches += float64(q.vmBranches)
		sum.memops += float64(q.vmMemOps)
		sum.calls += float64(q.counterDeltas[ctrBatchCalls])
		sum.rows += float64(q.counterDeltas[ctrBatchRows])
		sum.fuseMicro += q.counterDeltas[ctrFuseMicro]
		sum.fuseInstrs += q.counterDeltas[ctrFuseInstrs]

		ea := eng[q.job.engine]
		ea.n++
		cache := q.stats.PhaseDur("Cache.Lookup") + q.stats.PhaseDur("Cache.Store")
		ea.compile += us(q.stats.Total - cache)
		ea.alloc += float64(q.backendAlloc) / 1024
		ea.codeBytes += float64(q.stats.CodeBytes)
		for _, p := range q.stats.Phases {
			ea.phases[p.Name] += us(p.Dur)
		}
		ea.spilled += q.counterDeltas[ctrSpilled]
		ea.promote += q.counterDeltas[ctrPromotions]
	}
	mean := func(x float64) float64 { return ratio(x, float64(ok)) }
	out["sql.parse_us"] = mean(sum.parse)
	out["codegen.compile_us"] = mean(sum.codegen)
	out["codegen.alloc_kb"] = mean(sum.alloc)
	out["codegen.qir_instrs"] = mean(sum.qir)
	out["codegen.funcs"] = mean(sum.funcs)
	out["sa.analysis_us"] = mean(sum.sa)
	out["sa.elim_ratio"] = ratio(float64(sum.elim), float64(sum.memOps))
	out["hoist.hoisted"] = mean(sum.hoisted)
	out["hoist.kept_inline"] = mean(sum.kept)
	out["hoist.analysis_rounds"] = mean(sum.rounds)
	for _, e := range qc.Engines() {
		ea := eng[e]
		n := float64(ea.n)
		out["backend."+e+".compile_us"] = ratio(ea.compile, n)
		if e != "interpreter" {
			out["backend."+e+".code_bytes"] = ratio(ea.codeBytes, n)
		}
		out["backend."+e+".alloc_kb"] = ratio(ea.alloc, n)
		for _, p := range enginePhases[e] {
			out["backend."+e+".phase."+p+"_us"] = ratio(ea.phases[p], n)
		}
	}
	out["clift.ra_spilled"] = ratio(float64(eng["cranelift"].spilled), float64(eng["cranelift"].n))
	out["adaptive.tier_promotions"] = ratio(float64(eng["adaptive"].promote), float64(eng["adaptive"].n))
	out["pcc.hit_rate"] = ratio(float64(sum.hits), float64(sum.hits+sum.misses))
	out["pcc.lookup_us"] = mean(sum.lookup)
	for _, md := range m.dbs {
		if md != nil && md.cache != nil {
			out["pcc.entries"] += float64(md.cache.Len())
			out["pcc.bytes"] += float64(md.cache.SizeBytes())
		}
	}
	out["exec.run_us"] = mean(sum.exec)
	out["exec.morsels"] = mean(sum.morsels)
	out["exec.workers_built"] = mean(sum.workers)
	out["vm.heap_growth_kb"] = mean(sum.heap)
	out["vm.instrs"] = mean(sum.instrs)
	out["vm.branches"] = mean(sum.branches)
	out["vm.mem_ops"] = mean(sum.memops)
	out["vm.fuse_rate"] = ratio(float64(sum.fuseMicro), float64(sum.fuseInstrs))
	out["rt.batch_kernel_calls"] = mean(sum.calls)
	out["rt.batch_rows"] = mean(sum.rows)
	for _, l := range layerOrder {
		out["share."+l] = lt.share(l)
	}
	out["trace.coverage"] = ratio(float64(lt.covered), float64(lt.wall))
	out["trace.overhead"] = ratio(median(walls), untracedP50)
	out["qc.residual_us"] = mean(us(lt.self["residual"]))
	out["qc.reopens"] = float64(reopens)
	for _, e := range qc.Engines() {
		pe := untraced.perEngine[e]
		if pe == nil {
			out["qps."+e] = 0
			continue
		}
		out["qps."+e] = ratio(float64(pe.ok), pe.secs)
	}
	out["failed_frac"] = ratio(float64(untraced.Failed), float64(untraced.Attempted))
	return out
}

// fingerprint hashes the deterministic per-query counts of a traced run in
// job order: two traced runs of one seed must give the same value.
func fingerprint(qs []*tracedQuery) string {
	h := sha256.New()
	for _, line := range deterministicLines(qs) {
		io.WriteString(h, line)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// deterministicLines renders, per traced query, every count that must not
// depend on timing: result digest, VM counts, check elimination, hoisting,
// code size and cache hits.
func deterministicLines(qs []*tracedQuery) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		code := -1
		if q.stats != nil {
			code = q.stats.CodeBytes
		}
		out[i] = fmt.Sprintf("%s %s ok=%v d=%s vm=%d/%d/%d sa=%d/%d hoist=%d/%d/%d code=%d pcc=%d/%d\n",
			q.job.id, q.job.engine, q.ok, q.digest, q.vmInstrs, q.vmBranches, q.vmMemOps,
			q.elim, q.memOps, q.hoisted, q.kept, q.counterDeltas[ctrHoistRounds], code, q.hits, q.misses)
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
