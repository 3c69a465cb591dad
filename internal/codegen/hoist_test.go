package codegen

import (
	"testing"

	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/sa"
)

// buildBoundedStoreLoop builds a setup-shaped function whose store is only
// provably in bounds while the loop bound n is compile-time known:
//
//	func(state ptr):
//	entry: n = const 4; k = const 7; zero = const 0; br head
//	head:  i = phi [entry: zero] [latch: i+1]; if i < n goto body else exit
//	body:  store state + i*8, k; br latch
//	latch: i2 = i+1; br head
//	exit:  ret
//
// With the 64-byte state region, i in [0,3] keeps the store inside it;
// widening n loses the proof, widening k (the stored value) does not.
func buildBoundedStoreLoop(m *qir.Module) (f *qir.Func, n, k qir.Value) {
	b := qir.NewFunc(m, "bounded", qir.Void, qir.Ptr)
	entry := b.Block()
	head := b.NewBlock()
	body := b.NewBlock()
	latch := b.NewBlock()
	exit := b.NewBlock()

	n = b.ConstInt(qir.I64, 4)
	k = b.ConstInt(qir.I64, 7)
	zero := b.ConstInt(qir.I64, 0)
	b.Br(head)
	b.SetBlock(head)
	i := b.Phi(qir.I64, entry, zero)
	b.CondBr(b.ICmp(qir.CmpSLT, i, n), body, exit)

	b.SetBlock(body)
	b.Store(b.GEP(b.Param(0), 0, i, 8), k)
	b.Br(latch)

	b.SetBlock(latch)
	b.AddPhiArg(i, latch, b.Bin(qir.OpAdd, i, b.ConstInt(qir.I64, 1)))
	b.Br(head)

	b.SetBlock(exit)
	b.Ret(qir.NoValue)
	return b.Func(), n, k
}

// buildFixedStore builds a cleanup-shaped function storing literal k at a
// fixed state offset: the store is safe whatever k's value.
func buildFixedStore(m *qir.Module) (f *qir.Func, k qir.Value) {
	b := qir.NewFunc(m, "fixed", qir.Void, qir.Ptr)
	k = b.ConstInt(qir.I64, 9)
	b.Store(b.GEP(b.Param(0), 8, qir.NoValue, 0), k)
	b.Ret(qir.NoValue)
	return b.Func(), k
}

// newHoistCompiler wraps hand-built module m in a compiler whose single
// pipeline makes function 0 its setup and function 1 its cleanup, so both
// get the 64-byte state region as parameter-0 fact.
func newHoistCompiler(m *qir.Module, cands map[*qir.Func][]qir.Value) *Compiler {
	return &Compiler{
		mod:  m,
		opts: Options{Elim: true, Hoist: true},
		out: &Compiled{Module: m, StateSize: 64, Pipelines: []Pipeline{
			{SetupFn: 0, MainFn: -1, CleanupFn: 1, MergeFn: -1},
		}},
		hoistCands: cands,
	}
}

// checkMarksMatchFresh asserts that the unchecked marks check elimination
// left equal a fresh sa.Analyze of each rewritten function.
func checkMarksMatchFresh(t *testing.T, c *Compiler) {
	t.Helper()
	for fi, f := range c.mod.Funcs {
		for _, acc := range sa.Analyze(f, c.out.factsFor(fi, nil, nil)).Accesses() {
			if got := f.Instrs[acc.V].Unchecked(); got != acc.Safe {
				t.Errorf("%s %%%d: unchecked mark %v, fresh analysis says safe=%v", f.Name, acc.V, got, acc.Safe)
			}
		}
	}
	if err := c.mod.VerifyModule(); err != nil {
		t.Fatal(err)
	}
}

// TestHoistKeptInlineAndReuse drives both classifier paths over hand-built
// functions. In the bounded loop the widened probe loses a proof, so the
// baseline and the greedy fallback run, the range-load-bearing bound stays
// inline, and the check eliminator analyses the rewritten function afresh.
// In the fixed store the probe proves every access safe, so it is the only
// analysis and its verdict is reused. Either way the unchecked marks must
// equal a fresh sa.Analyze of the rewritten function.
func TestHoistKeptInlineAndReuse(t *testing.T) {
	m := qir.NewModule("t")
	loop, n, k := buildBoundedStoreLoop(m)
	fixed, k2 := buildFixedStore(m)
	c := newHoistCompiler(m, map[*qir.Func][]qir.Value{loop: {n, k}, fixed: {k2}})

	rounds := obsHoistRounds.Load()
	reuse := c.hoistConstants(nil)
	// Loop: probe, baseline, one greedy round per candidate. Fixed: probe.
	if got := obsHoistRounds.Load() - rounds; got != 5 {
		t.Errorf("hoisting ran %d analyses, want 5 (4 for the loop, 1 for the fixed store)", got)
	}
	if h := c.out.Hoist; h.Candidates != 3 || h.Hoisted != 2 || h.KeptInline != 1 || h.PoolSlots != 2 {
		t.Errorf("hoist stats = %+v, want 3 candidates, 2 hoisted, 1 kept inline, 2 slots", h)
	}
	if loop.Prov.KeptInline != 1 || loop.Prov.Hoisted != 1 {
		t.Errorf("loop provenance = %d hoisted / %d kept, want 1 / 1", loop.Prov.Hoisted, loop.Prov.KeptInline)
	}
	if op := loop.Instrs[n].Op; op != qir.OpConst {
		t.Errorf("loop bound rewritten to %s, want it kept inline", op)
	}
	if op := loop.Instrs[k].Op; op != qir.OpConstPool {
		t.Errorf("stored literal is %s, want a pool load", op)
	}
	if len(reuse) != 2 || reuse[0] != nil || reuse[1] == nil {
		t.Fatalf("reuse = %v, want a verdict for the fixed store only", reuse)
	}

	c.out.eliminateChecks(nil, reuse)
	if e := c.out.Elim; e.MemOps != 2 || e.Unchecked != 2 || len(e.Findings) != 0 {
		t.Errorf("elim stats = %+v, want 2/2 unchecked and no findings", e)
	}
	checkMarksMatchFresh(t, c)
}

// TestHoistPoolFullGetsFreshAnalysis: a candidate the classifier cleared but
// the full pool could not take stays inline, so the widened probe no longer
// describes the function and must not be reused as its verdict.
func TestHoistPoolFullGetsFreshAnalysis(t *testing.T) {
	m := qir.NewModule("t")
	fixed, k := buildFixedStore(m)
	for len(m.Pool) < rt.ConstPoolSlots {
		m.AddPoolConst(qir.PoolConst{Type: qir.I64})
	}
	c := newHoistCompiler(m, map[*qir.Func][]qir.Value{fixed: {k}})

	if reuse := c.hoistConstants(nil); reuse != nil {
		t.Errorf("reuse = %v, want none with the literal kept inline", reuse)
	}
	if h := c.out.Hoist; h.Hoisted != 0 || h.KeptInline != 1 {
		t.Errorf("hoist stats = %+v, want the literal kept inline", h)
	}
	c.out.eliminateChecks(nil, nil)
	checkMarksMatchFresh(t, c)
}
