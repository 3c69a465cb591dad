package codegen

import (
	"qcc/internal/obs"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/sa"
)

var (
	obsHoistCands  = obs.NewCounter("hoist.candidates")
	obsHoisted     = obs.NewCounter("hoist.hoisted")
	obsKeptInline  = obs.NewCounter("hoist.kept_inline")
	obsHoistSlots  = obs.NewCounter("hoist.pool_slots")
	obsHoistRounds = obs.NewCounter("hoist.analysis_rounds")
)

// HoistStats summarizes the constant-hoisting pass over one module.
type HoistStats struct {
	// Enabled records whether the pass ran at all.
	Enabled bool
	// Candidates is the number of user literals considered.
	Candidates int
	// Hoisted is how many were moved to the constant pool.
	Hoisted int
	// KeptInline is how many stayed inline because the static analysis
	// proved fewer checks redundant with the literal widened (the literal
	// is range-load-bearing), or because the pool was full.
	KeptInline int
	// PoolSlots is the number of pool slots the module uses.
	PoolSlots int
}

// hoistConstants rewrites user-supplied query literals (recorded during
// expression emission) into constant-pool loads, turning the compiled body
// into a parameterized plan: modules that differ only in literal values
// produce identical function bodies and therefore share entries in the
// content-addressed code cache, with the actual values bound into pool
// slots at execution time.
//
// Not every literal is eligible. The check-elimination pass exploits the
// compile-time value of some literals — a filter constant can bound an
// induction variable or an arithmetic result, turning a trapping operation
// or a bounds check provably redundant. Hoisting such a literal erases the
// value-range fact and would silently re-introduce runtime checks. The pass
// therefore classifies each candidate by hypothetical widening: it asks the
// analysis how many checks remain provable when the literal's range is
// widened to its type bounds (sa.Facts.WideConsts), and keeps the literal
// inline when the eliminable set shrinks. The per-function decision tally
// lands in qir.Prov (Hoisted/KeptInline) for qtrace attribution.
//
// It returns, per function index, the check-elimination verdicts the
// classification already computed: when every candidate of a function went
// to the pool, its all-widened analysis is a sound analysis of the
// rewritten function, because a widened literal and an OpConstPool load
// both evaluate to the type's load bounds (relocating the loads to the
// entry block changes no value).
func (c *Compiler) hoistConstants(cat *rt.Catalog) []*funcElim {
	stats := HoistStats{Enabled: true}
	defer func() {
		stats.PoolSlots = len(c.mod.Pool)
		c.out.Hoist = stats
		obsHoistCands.Add(int64(stats.Candidates))
		obsHoisted.Add(int64(stats.Hoisted))
		obsKeptInline.Add(int64(stats.KeptInline))
		obsHoistSlots.Add(int64(stats.PoolSlots))
	}()
	if len(c.hoistCands) == 0 {
		return nil
	}
	var reuse []*funcElim
	regions := moduleRegions(cat)
	for fi, f := range c.mod.Funcs {
		cands := c.hoistCands[f]
		if len(cands) == 0 {
			continue
		}
		stats.Candidates += len(cands)
		hoist := cands
		var probe *funcElim
		if c.opts.Elim {
			hoist, probe = c.classifyHoists(fi, f, cands, regions, cat)
		}
		hoistSet := make(map[qir.Value]bool, len(hoist))
		for _, v := range hoist {
			hoistSet[v] = true
		}
		kept := 0
		for _, v := range cands {
			if hoistSet[v] && c.rewriteToPool(f, v) {
				stats.Hoisted++
				f.Prov.Hoisted++
			} else {
				kept++
				stats.KeptInline++
				f.Prov.KeptInline++
			}
		}
		if probe != nil && kept == 0 {
			if reuse == nil {
				reuse = make([]*funcElim, len(c.mod.Funcs))
			}
			reuse[fi] = probe
		}
	}
	return reuse
}

// classifyHoists partitions a function's candidates into hoistable ones,
// returned, and range-load-bearing ones, omitted. Classification is by
// hypothetical widening against the same facts the check eliminator will
// use. It first analyses the function with the whole candidate set widened
// at once (the common case — query literals rarely feed safety proofs).
// When that probe proves every access safe, hoisting cannot lose a proof
// and the all-inline baseline is never computed. Otherwise the baseline is
// analysed, and on regression candidates are tried greedily one at a time
// in emission order, each hoist kept only if the eliminable-check count
// stays at the baseline. The greedy order makes the decision deterministic,
// which the cache keying relies on.
//
// When every candidate is classified hoistable, the probe's verdict is
// returned as well so the check eliminator can reuse it.
func (c *Compiler) classifyHoists(fi int, f *qir.Func, cands []qir.Value, regions []sa.Region, cat *rt.Catalog) ([]qir.Value, *funcElim) {
	// analyze runs one round: the eliminator's analysis of f with the
	// literals in wide widened.
	analyze := func(wide map[qir.Value]bool) *funcElim {
		obsHoistRounds.Inc()
		facts := c.out.factsFor(fi, regions, cat)
		facts.WideConsts = wide
		return analyzeElim(f, facts)
	}
	all := make(map[qir.Value]bool, len(cands))
	for _, v := range cands {
		all[v] = true
	}
	probe := analyze(all)
	wide := probe.safe()
	if wide == len(probe.accs) {
		return cands, probe
	}
	base := analyze(nil).safe()
	if wide == base {
		return cands, probe
	}
	cur := make(map[qir.Value]bool, len(cands))
	var hoist []qir.Value
	for _, v := range cands {
		cur[v] = true
		if analyze(cur).safe() < base {
			delete(cur, v)
			continue
		}
		hoist = append(hoist, v)
	}
	return hoist, nil
}

// rewriteToPool replaces literal instruction v with a constant-pool load,
// allocating the next module pool slot. Returns false when the pool is full
// (the literal stays inline — a performance fallback, not an error) or the
// instruction is not a poolable literal.
func (c *Compiler) rewriteToPool(f *qir.Func, v qir.Value) bool {
	if len(c.mod.Pool) >= rt.ConstPoolSlots {
		return false
	}
	in := &f.Instrs[v]
	var pc qir.PoolConst
	switch in.Op {
	case qir.OpConst:
		// Imm is already the sign-extended 64-bit value for every narrow
		// integer type, which is exactly the canonical slot encoding.
		pc = qir.PoolConst{Type: in.Type, Lo: uint64(in.Imm)}
	case qir.OpConstF:
		pc = qir.PoolConst{Type: qir.F64, Lo: uint64(in.Imm)}
	case qir.OpConst128:
		pc = qir.PoolConst{Type: qir.I128, Lo: f.I128[2*in.Imm], Hi: f.I128[2*in.Imm+1]}
		// Zero the orphaned literal words: f.I128 is hashed in full by the
		// cache unit key, and the whole point of hoisting is that the
		// hashed body no longer depends on the literal's value.
		f.I128[2*in.Imm], f.I128[2*in.Imm+1] = 0, 0
	case qir.OpConstStr:
		// The interned copy in mod.Strings stays behind (harmlessly — the
		// unit key only hashes string table entries still referenced by an
		// OpConstStr instruction); the pool slot carries the value.
		pc = qir.PoolConst{Type: qir.Str, Str: c.mod.Strings[in.Imm]}
	default:
		return false
	}
	slot := c.mod.AddPoolConst(pc)
	*in = qir.Instr{Op: qir.OpConstPool, Type: pc.Type, A: qir.NoValue, B: qir.NoValue, C: qir.NoValue, Imm: slot}

	// Relocate the pool load to the entry block, just before its terminator.
	// Literals typically sit in hot scan loops; the load is loop-invariant by
	// construction (the slot address is compile-time fixed and the value
	// cannot change mid-query), so executing it once per function call
	// instead of once per row removes the indirection from the row loop. A
	// def already in the entry block stays put: the entry runs once anyway,
	// and moving it past a same-block use would break scheduling. For defs
	// in later blocks no use can sit in the entry (SSA: the def's block
	// dominates every use, and nothing but the entry dominates the entry).
	for b := 1; b < len(f.Blocks); b++ {
		list := f.Blocks[b].List
		for i, lv := range list {
			if lv != v {
				continue
			}
			f.Blocks[b].List = append(list[:i], list[i+1:]...)
			entry := &f.Blocks[0]
			n := len(entry.List)
			entry.List = append(entry.List, v)
			entry.List[n-1], entry.List[n] = v, entry.List[n-1]
			return true
		}
	}
	return true
}
