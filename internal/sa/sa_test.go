package sa

import (
	"testing"

	"qcc/internal/qir"
)

func TestIntervalArith(t *testing.T) {
	cases := []struct {
		name string
		got  Interval
		want Interval
	}{
		{"add", Range(1, 3).Add(Range(10, 20)), Range(11, 23)},
		{"add-overflow", Range(1, PosInf-1).Add(Range(2, 2)), Top()},
		{"sub", Range(5, 10).Sub(Range(1, 2)), Range(3, 9)},
		{"sub-overflow", Range(NegInf+1, 0).Sub(Range(2, 2)), Top()},
		{"mul", Range(-2, 3).Mul(Range(4, 5)), Range(-10, 15)},
		{"mul-overflow", Range(0, PosInf/2+1).Mul(Range(2, 2)), Top()},
		{"neg", Range(-3, 7).Neg(), Range(-7, 3)},
		{"neg-min", Range(NegInf, 0).Neg(), Top()},
		{"meet", Range(0, 10).Meet(Range(5, 20)), Range(5, 10)},
		{"union", Range(0, 1).Union(Range(5, 6)), Range(0, 6)},
		{"addsat", Range(1, PosInf-1).AddSat(Range(2, 2)), Range(3, PosInf)},
		{"mulsat", Range(0, PosInf/2+1).MulSat(Range(2, 2)), Range(0, PosInf)},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, c.got, c.want)
		}
	}
	if !Range(5, 4).Empty() {
		t.Error("inverted interval should be empty")
	}
}

func TestRefineByCmp(t *testing.T) {
	// x slt y with y in [0, 100]: x.Hi clamps to 99.
	nx, ny := refineByCmp(qir.CmpSLT, Top(), Range(0, 100))
	if nx.Hi != 99 {
		t.Errorf("slt: x.Hi = %d, want 99", nx.Hi)
	}
	if ny != Range(0, 100) {
		t.Errorf("slt: y changed unexpectedly to %s", ny)
	}
	// x ult y with y in [0, 64]: pins x to [0, 63] even with unknown sign.
	nx, _ = refineByCmp(qir.CmpULT, Top(), Range(0, 64))
	if nx != Range(0, 63) {
		t.Errorf("ult: x = %s, want [0,63]", nx)
	}
	// x uge y must not refine when y's sign is unknown.
	nx, _ = refineByCmp(qir.CmpUGE, Top(), Top())
	if !nx.IsTop() {
		t.Errorf("uge with unknown ranges refined to %s", nx)
	}
}

// buildMorselFunc mirrors the codegen morsel-loop shape:
//
//	func(state ptr, lo i64, hi i64):
//	entry: br head
//	head:  i = phi [entry: lo] [latch: i+1]; if i < hi goto body else exit
//	body:  x = load (colBase + i*8); acc = load state+16; store state+16, acc+x
//	latch: i2 = i+1; br head
//	exit:  ret
func buildMorselFunc(m *qir.Module, colBase int64) (*qir.Func, qir.Value, []qir.BlockID) {
	b := qir.NewFunc(m, "morsel", qir.Void, qir.Ptr, qir.I64, qir.I64)
	entry := b.Block()
	head := b.NewBlock()
	body := b.NewBlock()
	latch := b.NewBlock()
	exit := b.NewBlock()

	b.Br(head)
	b.SetBlock(head)
	i := b.Phi(qir.I64, entry, b.Param(1))
	cond := b.ICmp(qir.CmpSLT, i, b.Param(2))
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	base := b.ConstInt(qir.Ptr, colBase)
	addr := b.GEP(base, 0, i, 8)
	x := b.Load(qir.I64, addr)
	saddr := b.GEP(b.Param(0), 16, qir.NoValue, 0)
	acc := b.Load(qir.I64, saddr)
	sum := b.Bin(qir.OpAdd, acc, x)
	b.Store(saddr, sum)
	b.Br(latch)

	b.SetBlock(latch)
	i2 := b.Bin(qir.OpAdd, i, b.ConstInt(qir.I64, 1))
	b.AddPhiArg(i, latch, i2)
	b.Br(head)

	b.SetBlock(exit)
	b.Ret(qir.NoValue)
	return b.Func(), i, []qir.BlockID{entry, head, body, latch, exit}
}

func TestMorselLoopProof(t *testing.T) {
	const colBase = 1 << 20
	const rows = 1000
	m := qir.NewModule("t")
	f, i, blocks := buildMorselFunc(m, colBase)
	body := blocks[2]

	facts := NewFacts()
	facts.ParamRegion = []int64{64}
	facts.ParamRange = []Interval{{}, {0, rows}, {0, rows}}
	facts.Regions = []Region{{Base: colBase, Size: rows * 8}}
	a := Analyze(f, facts)

	// The constraint-aware second round recovers the exact trip range of
	// the induction phi; the branch condition sharpens it further to
	// [0, rows-1] inside the body.
	if g := a.Range(i); g != Range(0, rows) {
		t.Errorf("global phi range = %s, want [0,%d]", g, rows)
	}
	if r := a.RangeAt(body, i); r != Range(0, rows-1) {
		t.Errorf("refined phi range in body = %s, want [0,%d]", r, rows-1)
	}

	accs := a.Accesses()
	if len(accs) != 3 {
		t.Fatalf("got %d accesses, want 3", len(accs))
	}
	for _, acc := range accs {
		if !acc.Safe {
			t.Errorf("access %%%d (store=%v) not proven safe", acc.V, acc.Store)
		}
	}
	// The column load is proven against the absolute region, the state
	// access against the anchored parameter region.
	if accs[0].Reason != "absolute" {
		t.Errorf("column load reason = %q, want absolute", accs[0].Reason)
	}
	if accs[1].Reason != "region" {
		t.Errorf("state load reason = %q, want region", accs[1].Reason)
	}
	if len(a.Lint()) != 0 {
		t.Errorf("unexpected lint findings: %v", a.Lint())
	}
}

func TestMorselLoopOffByOne(t *testing.T) {
	// Identical loop, but the region is one element too small: nothing may
	// be proven for the column access.
	const colBase = 1 << 20
	m := qir.NewModule("t")
	f, _, _ := buildMorselFunc(m, colBase)
	facts := NewFacts()
	facts.ParamRegion = []int64{64}
	facts.ParamRange = []Interval{{}, {0, 1000}, {0, 1000}}
	facts.Regions = []Region{{Base: colBase, Size: 1000*8 - 8}}
	a := Analyze(f, facts)
	accs := a.Accesses()
	if accs[0].Safe {
		t.Errorf("column load proven safe against a too-small region (reason %q)", accs[0].Reason)
	}
}

func TestUnknownIndexNotEliminated(t *testing.T) {
	// A load indexed by an unconstrained parameter must stay checked.
	m := qir.NewModule("t")
	b := qir.NewFunc(m, "f", qir.I64, qir.Ptr, qir.I64)
	base := b.ConstInt(qir.Ptr, 1<<20)
	addr := b.GEP(base, 0, b.Param(1), 8)
	x := b.Load(qir.I64, addr)
	b.Ret(x)
	facts := NewFacts()
	facts.Regions = []Region{{Base: 1 << 20, Size: 8000}}
	a := Analyze(b.Func(), facts)
	accs := a.Accesses()
	if len(accs) != 1 || accs[0].Safe {
		t.Errorf("unbounded-index load must not be eliminated: %+v", accs)
	}
}

func TestBranchRefinement(t *testing.T) {
	// if n < 10 { then } else { else }
	m := qir.NewModule("t")
	b := qir.NewFunc(m, "f", qir.Void, qir.I64)
	n := b.Param(0)
	then := b.NewBlock()
	els := b.NewBlock()
	cond := b.ICmp(qir.CmpSLT, n, b.ConstInt(qir.I64, 10))
	b.CondBr(cond, then, els)
	b.SetBlock(then)
	b.Ret(qir.NoValue)
	b.SetBlock(els)
	b.Ret(qir.NoValue)
	a := Analyze(b.Func(), nil)
	if r := a.RangeAt(then, n); r.Hi != 9 {
		t.Errorf("then-range = %s, want Hi 9", r)
	}
	if r := a.RangeAt(els, n); r.Lo != 10 {
		t.Errorf("else-range = %s, want Lo 10", r)
	}
	if r := a.RangeAt(then, cond); r != Point(1) {
		t.Errorf("cond in then = %s, want [1,1]", r)
	}
	if r := a.RangeAt(els, cond); r != Point(0) {
		t.Errorf("cond in else = %s, want [0,0]", r)
	}
}

func TestRedundantAccessTier(t *testing.T) {
	// Two loads of state+24 in blocks where the first dominates the second:
	// the second needs no check even though the state size is unknown.
	m := qir.NewModule("t")
	b := qir.NewFunc(m, "f", qir.I64, qir.Ptr)
	a1 := b.GEP(b.Param(0), 24, qir.NoValue, 0)
	b.Load(qir.I64, a1)
	next := b.NewBlock()
	b.Br(next)
	b.SetBlock(next)
	a2 := b.GEP(b.Param(0), 24, qir.NoValue, 0)
	x := b.Load(qir.I64, a2)
	b.Ret(x)

	facts := NewFacts()
	facts.ParamRegion = []int64{8} // too small to prove offset 24 directly
	a := Analyze(b.Func(), facts)
	accs := a.Accesses()
	if len(accs) != 2 {
		t.Fatalf("want 2 accesses, got %d", len(accs))
	}
	if accs[0].Safe {
		t.Error("first access must stay checked")
	}
	if !accs[1].Safe || accs[1].Reason != "redundant" {
		t.Errorf("second access should be redundant, got %+v", accs[1])
	}
}

func TestLoopVariantAddressNotRedundant(t *testing.T) {
	// The address is a loop-carried phi: the same SSA value denotes a
	// different runtime address per iteration, so a dominating access in a
	// previous iteration proves nothing.
	m := qir.NewModule("t")
	b := qir.NewFunc(m, "f", qir.Void, qir.Ptr)
	entry := b.Block()
	head := b.NewBlock()
	bodyA := b.NewBlock()
	bodyB := b.NewBlock()
	exit := b.NewBlock()
	b.Br(head)
	b.SetBlock(head)
	p := b.Phi(qir.Ptr, entry, b.Param(0))
	b.Br(bodyA)
	b.SetBlock(bodyA)
	b.Load(qir.I64, p)
	b.Br(bodyB)
	b.SetBlock(bodyB)
	b.Load(qir.I64, p)
	p2 := b.GEP(p, 8, qir.NoValue, 0)
	b.AddPhiArg(p, bodyB, p2)
	cond := b.ICmp(qir.CmpEQ, b.ConstInt(qir.I64, 0), b.ConstInt(qir.I64, 0))
	b.CondBr(cond, head, exit)
	b.SetBlock(exit)
	b.Ret(qir.NoValue)

	a := Analyze(b.Func(), nil)
	accs := a.Accesses()
	if len(accs) != 2 {
		t.Fatalf("want 2 accesses, got %d", len(accs))
	}
	// Same block would be fine, but these are cross-block with a variant
	// address: both must stay checked.
	for _, acc := range accs {
		if acc.Safe {
			t.Errorf("loop-variant access %%%d wrongly eliminated (%s)", acc.V, acc.Reason)
		}
	}
}

func TestSameBlockSameAddrRedundant(t *testing.T) {
	// Within one block the same SSA address has one runtime value, so the
	// second access is covered by the first.
	m := qir.NewModule("t")
	b := qir.NewFunc(m, "f", qir.I64, qir.Ptr)
	p := b.Load(qir.Ptr, b.GEP(b.Param(0), 0, qir.NoValue, 0))
	b.Load(qir.I64, p)
	x := b.Load(qir.I64, p)
	b.Ret(x)
	facts := NewFacts()
	facts.ParamRegion = []int64{8}
	a := Analyze(b.Func(), facts)
	accs := a.Accesses()
	if len(accs) != 3 {
		t.Fatalf("want 3 accesses, got %d", len(accs))
	}
	if !accs[0].Safe {
		t.Error("pointer slot load should be region-proven")
	}
	if accs[1].Safe {
		t.Error("first indirect load must stay checked")
	}
	if !accs[2].Safe || accs[2].Reason != "redundant" {
		t.Errorf("second indirect load should be redundant, got %+v", accs[2])
	}
}

func TestLintAlwaysTrapAndContradiction(t *testing.T) {
	m := qir.NewModule("t")
	b := qir.NewFunc(m, "f", qir.I64, qir.I64)
	// Null deref.
	b.Load(qir.I64, b.Null())
	// Contradictory branch: param pinned to [0,10] but compared with 20.
	then := b.NewBlock()
	els := b.NewBlock()
	cond := b.ICmp(qir.CmpSLT, b.Param(0), b.ConstInt(qir.I64, 20))
	b.CondBr(cond, then, els)
	b.SetBlock(then)
	b.Ret(b.ConstInt(qir.I64, 0))
	b.SetBlock(els)
	// Division by constant zero in the (dead) arm.
	q := b.Bin(qir.OpSDiv, b.Param(0), b.ConstInt(qir.I64, 0))
	b.Ret(q)

	facts := NewFacts()
	facts.ParamRange = []Interval{{0, 10}}
	fs := Analyze(b.Func(), facts).Lint()
	var kinds []FindingKind
	for _, f := range fs {
		kinds = append(kinds, f.Kind)
	}
	want := map[FindingKind]bool{FindAlwaysTrap: false, FindContradiction: false}
	trapCount := 0
	for _, k := range kinds {
		if k == FindAlwaysTrap {
			trapCount++
		}
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("missing %s finding in %v", k, fs)
		}
	}
	if trapCount != 2 {
		t.Errorf("want 2 always-trap findings (null deref + div zero), got %d: %v", trapCount, fs)
	}
}

func TestLintDeadStoreAndUnreachable(t *testing.T) {
	m := qir.NewModule("t")
	b := qir.NewFunc(m, "f", qir.Void, qir.Ptr)
	s := b.GEP(b.Param(0), 8, qir.NoValue, 0)
	b.Store(s, b.ConstInt(qir.I64, 1))
	b.Store(s, b.ConstInt(qir.I64, 2)) // kills the first store
	b.Ret(qir.NoValue)
	dead := b.NewBlock()
	b.SetBlock(dead)
	b.Ret(qir.NoValue)

	facts := NewFacts()
	facts.ParamRegion = []int64{64}
	fs := Analyze(b.Func(), facts).Lint()
	var sawDead, sawUnreach bool
	for _, f := range fs {
		switch f.Kind {
		case FindDeadStore:
			sawDead = true
		case FindUnreachable:
			sawUnreach = true
		}
	}
	if !sawDead || !sawUnreach {
		t.Errorf("want dead-store and unreachable-block findings, got %v", fs)
	}
}

func TestLintNoDeadStoreAcrossLoad(t *testing.T) {
	m := qir.NewModule("t")
	b := qir.NewFunc(m, "f", qir.I64, qir.Ptr)
	s := b.GEP(b.Param(0), 8, qir.NoValue, 0)
	b.Store(s, b.ConstInt(qir.I64, 1))
	x := b.Load(qir.I64, s) // observes the first store
	b.Store(s, b.ConstInt(qir.I64, 2))
	b.Ret(x)
	facts := NewFacts()
	facts.ParamRegion = []int64{64}
	for _, f := range Analyze(b.Func(), facts).Lint() {
		if f.Kind == FindDeadStore {
			t.Errorf("store observed by a load flagged dead: %v", f)
		}
	}
}

func TestWideningTerminates(t *testing.T) {
	// Unbounded count-down loop: i starts unknown and decreases; both
	// directions must widen without hanging.
	m := qir.NewModule("t")
	b := qir.NewFunc(m, "f", qir.Void, qir.I64)
	entry := b.Block()
	head := b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()
	b.Br(head)
	b.SetBlock(head)
	i := b.Phi(qir.I64, entry, b.Param(0))
	cond := b.ICmp(qir.CmpNE, i, b.ConstInt(qir.I64, 0))
	b.CondBr(cond, body, exit)
	b.SetBlock(body)
	i2 := b.Bin(qir.OpSub, i, b.ConstInt(qir.I64, 3))
	b.AddPhiArg(i, body, i2)
	b.Br(head)
	b.SetBlock(exit)
	b.Ret(qir.NoValue)
	a := Analyze(b.Func(), nil)
	if !a.Range(i).IsTop() {
		t.Errorf("phi range = %s, want top after widening", a.Range(i))
	}
}

func TestMaxLiveValues(t *testing.T) {
	m := qir.NewModule("t")
	b := qir.NewFunc(m, "f", qir.I64, qir.I64, qir.I64)
	x := b.Bin(qir.OpAdd, b.Param(0), b.Param(1))
	y := b.Bin(qir.OpMul, b.Param(0), b.Param(1))
	z := b.Bin(qir.OpAdd, x, y)
	b.Ret(z)
	f := b.Func()
	got := f.MaxLiveValues(f.LivenessAnalysis())
	// After x is defined: params and x are live (y still needs both
	// params) -> at least 3 simultaneously live values.
	if got < 3 {
		t.Errorf("MaxLiveValues = %d, want >= 3", got)
	}
}

// buildChainWalk replicates the hash-table probe shape codegen emits: a
// lookup call yields a maybe-null entry pointer, a phi walks the chain via
// the next pointer at entry-16, and the loop body (guarded by a null check)
// reads the stored hash at entry-8 and a payload slot.
func buildChainWalk(m *qir.Module, width int64) (*qir.Func, map[string]qir.Value, []qir.BlockID) {
	b := qir.NewFunc(m, "chain", qir.Void, qir.Ptr, qir.I64)
	entry := b.Block()
	first := b.Call(qir.Ptr, "ht_lookup", b.Param(0), b.Param(1))

	head := b.NewBlock()
	body := b.NewBlock()
	latch := b.NewBlock()
	exit := b.NewBlock()
	b.Br(head)

	b.SetBlock(head)
	p := b.Phi(qir.Ptr, entry, first)
	null := b.Null()
	done := b.ICmp(qir.CmpEQ, p, null)
	b.CondBr(done, exit, body)

	b.SetBlock(body)
	ehash := b.Load(qir.I64, b.GEP(p, -8, qir.NoValue, 0))
	payload := b.Load(qir.I64, b.GEP(p, 8, qir.NoValue, 0))
	use := b.Bin(qir.OpAdd, ehash, payload)
	_ = use
	b.Br(latch)

	b.SetBlock(latch)
	nxt := b.Load(qir.Ptr, b.GEP(p, -16, qir.NoValue, 0))
	b.AddPhiArg(p, latch, nxt)
	b.Br(head)

	b.SetBlock(exit)
	b.Ret(qir.NoValue)
	return b.Func(), map[string]qir.Value{"first": first, "p": p, "nxt": nxt}, []qir.BlockID{entry, head, body, latch, exit}
}

func TestPtrFactChainWalk(t *testing.T) {
	m := qir.NewModule("t")
	f, vals, blocks := buildChainWalk(m, 32)
	body, latch := blocks[2], blocks[3]

	facts := NewFacts()
	facts.ValFacts = map[qir.Value]PtrFact{
		vals["first"]: {Pre: 16, Post: 32, MaybeNull: true},
		vals["p"]:     {Pre: 16, Post: 32, MaybeNull: true},
		vals["nxt"]:   {Pre: 16, Post: 32, MaybeNull: true},
	}
	a := Analyze(f, facts)

	if !a.nonNullAt(body, vals["p"]) {
		t.Fatalf("phi not proven non-null in null-guarded body")
	}
	if a.nonNullAt(blocks[1], vals["p"]) {
		t.Fatalf("phi wrongly non-null at loop head (pre-check)")
	}
	var safe, unsafe int
	for _, acc := range a.Accesses() {
		if acc.Safe {
			if acc.Reason != "region" {
				t.Fatalf("access %%%d: reason %q, want region", acc.V, acc.Reason)
			}
			safe++
		} else {
			unsafe++
		}
	}
	// All three accesses sit in null-guarded blocks (body and latch are
	// only reachable through the p != null arm).
	if safe != 3 || unsafe != 0 {
		t.Fatalf("safe=%d unsafe=%d, want 3/0", safe, unsafe)
	}
	if !a.Dom.Dominates(body, latch) {
		t.Fatalf("test premise: body should dominate latch")
	}
	if len(a.Lint()) != 0 {
		t.Fatalf("unexpected lint findings: %v", a.Lint())
	}
}

func TestPtrFactNullNotProven(t *testing.T) {
	m := qir.NewModule("t")
	b := qir.NewFunc(m, "noguard", qir.Void, qir.I64)
	p := b.Call(qir.Ptr, "ht_lookup", b.Param(0))
	v := b.Load(qir.I64, b.GEP(p, 0, qir.NoValue, 0))
	_ = v
	b.Ret(qir.NoValue)
	f := b.Func()

	facts := NewFacts()
	facts.ValFacts = map[qir.Value]PtrFact{p: {Pre: 0, Post: 8, MaybeNull: true}}
	a := Analyze(f, facts)
	for _, acc := range a.Accesses() {
		if acc.Safe {
			t.Fatalf("maybe-null deref without guard must stay checked")
		}
	}

	// The same shape with a non-null contract is proven outright.
	m2 := qir.NewModule("t2")
	b2 := qir.NewFunc(m2, "insert", qir.Void, qir.I64)
	p2 := b2.Call(qir.Ptr, "ht_insert", b2.Param(0))
	b2.Store(b2.GEP(p2, 0, qir.NoValue, 0), b2.Param(0))
	b2.Ret(qir.NoValue)
	facts2 := NewFacts()
	facts2.ValFacts = map[qir.Value]PtrFact{p2: {Pre: 0, Post: 8}}
	a2 := Analyze(b2.Func(), facts2)
	accs := a2.Accesses()
	if len(accs) != 1 || !accs[0].Safe || accs[0].Reason != "region" {
		t.Fatalf("non-null fact store not proven: %+v", accs)
	}

	// Out-of-contract offset must stay checked even with the fact.
	m3 := qir.NewModule("t3")
	b3 := qir.NewFunc(m3, "oob", qir.Void, qir.I64)
	p3 := b3.Call(qir.Ptr, "ht_insert", b3.Param(0))
	b3.Store(b3.GEP(p3, 4, qir.NoValue, 0), b3.Param(0))
	b3.Ret(qir.NoValue)
	facts3 := NewFacts()
	facts3.ValFacts = map[qir.Value]PtrFact{p3: {Pre: 0, Post: 8}}
	a3 := Analyze(b3.Func(), facts3)
	if accs := a3.Accesses(); accs[0].Safe {
		t.Fatalf("8-byte store at offset 4 of an 8-byte region marked safe")
	}
}

func TestPtrFactAnchorNotCrossBlockRedundant(t *testing.T) {
	// Two same-offset loads through a loop-carried fact pointer in
	// different blocks must not cover each other: the anchor takes a new
	// value every iteration.
	m := qir.NewModule("t")
	f, vals, _ := buildChainWalk(m, 32)
	facts := NewFacts()
	// No Post large enough to prove anything; only redundancy could fire.
	facts.ValFacts = map[qir.Value]PtrFact{
		vals["first"]: {Pre: 0, Post: 1, MaybeNull: true},
		vals["p"]:     {Pre: 0, Post: 1, MaybeNull: true},
		vals["nxt"]:   {Pre: 0, Post: 1, MaybeNull: true},
	}
	a := Analyze(f, facts)
	for _, acc := range a.Accesses() {
		if acc.Safe {
			t.Fatalf("access %%%d wrongly proven (%s)", acc.V, acc.Reason)
		}
	}
}
