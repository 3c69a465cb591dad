package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"qcc"
	"qcc/internal/backend"
	"qcc/internal/backend/adaptive"
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
	"qcc/internal/sql"
	"qcc/internal/tpcds"
	"qcc/internal/tpch"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// mirrorDB is what qc.Open builds, assembled from the layers directly so
// the traced run can time each layer boundary from outside.
type mirrorDB struct {
	db      *rt.DB
	cat     *rt.Catalog
	engines map[string]backend.Engine
	cache   *pcc.Cache
}

func openMirrorDB(set settings, suite string, sf float64) (*mirrorDB, error) {
	m := vm.New(vm.Config{Arch: vt.VX64, MemSize: set.MemMB << 20})
	db := rt.NewDB(m)
	md := &mirrorDB{
		db:  db,
		cat: rt.NewCatalog(db),
		engines: map[string]backend.Engine{
			"interpreter": interp.New(),
			"directemit":  direct.New(),
			"cranelift":   clift.New(),
			"llvm-cheap":  lbe.NewCheap(),
			"llvm-opt":    lbe.NewOpt(),
			"gcc":         cbe.New(),
			"adaptive":    adaptive.New(),
		},
	}
	if set.CacheMB > 0 {
		md.cache = pcc.NewCache(int64(set.CacheMB) << 20)
	}
	var err error
	if suite == "tpcds" {
		err = tpcds.Load(md.cat, sf)
	} else {
		err = tpch.Load(md.cat, sf)
	}
	return md, err
}

// Process-wide counters read around every traced query. obs.NewCounter
// returns the already registered counter of that name.
var (
	ctrHoistRounds = obs.NewCounter("hoist.analysis_rounds")
	ctrMorsels     = obs.NewCounter("exec_morsels")
	ctrWorkers     = obs.NewCounter("exec_workers")
	ctrBatchCalls  = obs.NewCounter("rt_batch_kernel_calls")
	ctrBatchRows   = obs.NewCounter("rt_batch_rows")
	ctrSpilled     = obs.NewCounter("clift.ra_spilled")
	ctrPromotions  = obs.NewCounter("adaptive.tier_promotions")
	ctrFuseMicro   = obs.NewCounter("vm_fuse_micro_ops")
	ctrFuseInstrs  = obs.NewCounter("vm_fuse_orig_instrs")
)

var tracedCounters = []*obs.Counter{
	ctrHoistRounds, ctrMorsels, ctrWorkers, ctrBatchCalls, ctrBatchRows,
	ctrSpilled, ctrPromotions, ctrFuseMicro, ctrFuseInstrs,
}

// tracedQuery is everything the traced run records about one query.
type tracedQuery struct {
	job    job
	ok     bool
	err    error
	digest string

	wall, parse, codegen, exec time.Duration

	codegenAlloc  uint64
	backendAlloc  uint64
	qirInstrs     int
	funcs         int
	saNs          int64
	memOps, elim  int
	hoisted, kept int
	stats         *backend.Stats
	hits, misses  int64
	lookup        time.Duration
	vmInstrs      int64
	vmBranches    int64
	vmMemOps      int64
	heapGrowth    uint64
	counterDeltas map[*obs.Counter]int64
}

// mirror runs jobs through mirrorDBs with every layer call wrapped in a
// span. It follows qc.DB.run step for step: the same Compile/CompileOpts
// rule, pcc.Wrap with Jobs 1 and the check-elimination variant tag,
// ResetQueryState before execution, no ExecPool and no checkpoint reset.
type mirror struct {
	w       *workload
	dbs     map[string]*mirrorDB
	tr      *obs.Tracer
	traces  []*obs.Trace
	reopens int
	// nested hands the tracer to the engines (backend.Env.Trace), so their
	// phase spans nest under the backend span.
	nested bool
	// served counts the passes the current databases ran, as in runner.
	served int
}

// newMirror opens the mirror's databases and runs the warm-up, untraced.
func newMirror(w *workload) *mirror {
	m := &mirror{w: w}
	m.setUp()
	return m
}

// setUp opens a database per suite and runs the warm-up jobs on them.
func (m *mirror) setUp() {
	m.dbs = map[string]*mirrorDB{}
	for _, s := range m.w.suites {
		m.dbs[s], _ = m.safeOpen(s)
	}
	for _, j := range m.w.warmup {
		m.exec(j)
	}
	m.served = 0
}

// renew replaces the databases with a fresh set-up, untraced, as the timed
// loop does at a session change.
func (m *mirror) renew() {
	tr := m.tr
	m.tr, m.dbs = nil, nil
	debug.FreeOSMemory()
	m.setUp()
	runtime.GC()
	m.tr = tr
}

func (m *mirror) safeOpen(suite string) (md *mirrorDB, err error) {
	defer func() {
		if p := recover(); p != nil {
			md, err = nil, fmt.Errorf("open %s: panic: %v", suite, p)
		}
	}()
	md, err = openMirrorDB(m.w.set, suite, m.w.sf)
	if err != nil {
		return nil, err
	}
	return md, nil
}

// startTrace attaches a fresh tracer; spans recorded so far are kept.
func (m *mirror) startTrace() {
	m.endTrace()
	m.tr = obs.New(obs.Options{})
}

func (m *mirror) endTrace() {
	if m.tr != nil {
		m.traces = append(m.traces, m.tr.Snapshot(fmt.Sprintf("qcbench %s #%d", m.w.name, len(m.traces)+1)))
	}
	m.tr = nil
}

// exec runs one job and records it: qc.DB.ExecWith/ExecPlan and
// qc.DB.run with a span around every layer call. A panic fails the query,
// reopens its database and, since spans inside the panicking layer never
// closed, starts a new tracer.
//
// Layer spans are opened and closed inline in this one function, not
// through helpers: the tracer's goroutine check walks the caller's stack,
// so every extra frame adds to the instrumentation cost at each boundary.
func (m *mirror) exec(j job) (q *tracedQuery) {
	q = &tracedQuery{job: j}
	var node plan.Node
	if j.sql == "" {
		node = j.build()
	}
	md := m.dbs[j.suite]
	if md == nil {
		m.reopens++
		md, _ = m.safeOpen(j.suite)
		m.dbs[j.suite] = md
		if md == nil {
			q.err = fmt.Errorf("%s: database unavailable", j.suite)
			return q
		}
	}
	before := make(map[*obs.Counter]int64, len(tracedCounters))
	for _, c := range tracedCounters {
		before[c] = c.Load()
	}
	mach := md.db.M
	i0, b0, o0, h0 := mach.Executed, mach.Branches, mach.MemOps, mach.HeapMark()
	defer func() {
		if p := recover(); p != nil {
			q.err = fmt.Errorf("panic: %v", p)
			m.reopens++
			m.dbs[j.suite], _ = m.safeOpen(j.suite)
			if m.tr != nil {
				m.startTrace()
			}
			return
		}
		q.vmInstrs, q.vmBranches, q.vmMemOps = mach.Executed-i0, mach.Branches-b0, mach.MemOps-o0
		q.heapGrowth = mach.HeapMark() - h0
		q.counterDeltas = make(map[*obs.Counter]int64, len(tracedCounters))
		for _, c := range tracedCounters {
			q.counterDeltas[c] = c.Load() - before[c]
		}
	}()

	root := m.tr.BeginCat("query", "query")
	t0 := time.Now()
	defer func() {
		q.wall = time.Since(t0)
		root.End()
	}()

	var err error
	eng, ok := md.engines[j.engine]
	if !ok {
		q.err = fmt.Errorf("qc: unknown engine %q", j.engine)
		return q
	}
	if j.sql != "" {
		sp := m.tr.BeginCat("sql", "layer")
		t := time.Now()
		node, err = sql.Parse(j.sql, md.cat)
		q.parse = time.Since(t)
		sp.End()
		if err != nil {
			q.err = err
			return q
		}
	}

	set := m.w.set
	batchExec := set.ExecJobs > 1 || set.Batch
	var c *codegen.Compiled
	sp := m.tr.BeginCat("codegen", "layer")
	t := time.Now()
	a0 := heapAllocBytes()
	if batchExec {
		c, err = codegen.CompileOpts(j.name, node, md.cat,
			codegen.Options{Elim: true, Hoist: true, Batch: set.Batch, Parallel: set.ExecJobs > 1})
	} else {
		c, err = codegen.Compile(j.name, node, md.cat)
	}
	q.codegenAlloc = heapAllocBytes() - a0
	q.codegen = time.Since(t)
	sp.End()
	if err != nil {
		q.err = err
		return q
	}

	sp = m.tr.BeginCat("backend", "layer")
	if md.cache != nil {
		eng = pcc.Wrap(eng, pcc.Config{Jobs: 1, Cache: md.cache, VariantTag: codegen.CheckElimVersion})
	}
	env := &backend.Env{DB: md.db, Arch: vt.VX64, Options: backend.Options{NoFuse: false}}
	if m.nested {
		env.Trace = m.tr
	}
	a0 = heapAllocBytes()
	ex, stats, err := eng.Compile(c.Module, env)
	q.backendAlloc = heapAllocBytes() - a0
	sp.End()
	if err != nil {
		q.err = err
		return q
	}

	// The exec span includes rt.DB.ResetQueryState (about a microsecond),
	// which qc.DB.run calls just before execution.
	sp = m.tr.BeginCat("exec", "layer")
	t = time.Now()
	md.db.ResetQueryState()
	execute := func() error { return codegen.Run(md.db, md.cat, c, ex.Call) }
	if batchExec {
		var mod *vm.Module
		if mh, ok := ex.(interface{ Module() *vm.Module }); ok {
			mod = mh.Module()
		}
		execute = func() error {
			return codegen.RunParallel(md.db, md.cat, c, ex.Call,
				codegen.ExecOptions{Jobs: set.ExecJobs, Module: mod})
		}
	}
	start := time.Now()
	err = execute()
	execTime := time.Since(start)
	q.exec = time.Since(t)
	sp.End()
	if err != nil {
		q.err = err
		return q
	}

	sp = m.tr.BeginCat("result", "layer")
	res := &qc.Result{Stats: qc.Stats{
		Engine:      eng.Name(),
		CompileTime: stats.Total,
		ExecTime:    execTime,
		Functions:   stats.Funcs,
		CodeBytes:   stats.CodeBytes,
		CacheHits:   stats.Counters["cache_hits"],
		CacheMisses: stats.Counters["cache_misses"],
		Phases:      map[string]time.Duration{},
	}}
	for _, p := range stats.Phases {
		res.Stats.Phases[p.Name] = p.Dur
	}
	for _, ci := range node.Schema() {
		res.Columns = append(res.Columns, ci.Name)
	}
	for _, row := range md.db.Out.Rows {
		out := make([]string, len(row))
		for i, v := range row {
			out[i] = v.String()
		}
		res.Rows = append(res.Rows, out)
	}
	sp.End()

	q.stats = stats
	q.hits, q.misses = stats.Counters["cache_hits"], stats.Counters["cache_misses"]
	q.lookup = stats.PhaseDur("Cache.Lookup")
	q.funcs = c.NumFuncs
	for _, f := range c.Module.Funcs {
		q.qirInstrs += len(f.Instrs)
	}
	q.saNs, q.memOps, q.elim = c.Elim.AnalysisNs, c.Elim.MemOps, c.Elim.Unchecked
	q.hoisted, q.kept = c.Hoist.Hoisted, c.Hoist.KeptInline
	q.ok = true
	q.digest = digest(res.Rows)
	return q
}

// nestedSample is how many jobs the nested replay traces.
const nestedSample = 14

// replay sets up the mirror like the timed run (load, untraced warm-up),
// then runs the first n jobs of the seed's stream under the tracer, with
// spans at the layer boundaries only. The per-layer metrics come from this
// pass. Engine phase spans are left out of it because each span costs the
// tracer a goroutine-id stack walk (10-20 us): with them the LLVM-like
// engines, which open the most spans, compile twice as slowly and the
// engine order changes. A second, nested pass over the first nestedSample
// jobs hands the tracer to the engines too, for the Chrome trace only; its
// spans are returned separately.
func replay(w *workload, seed int64, n int) (m *mirror, qs []*tracedQuery, nested []*obs.Trace) {
	m = newMirror(w)
	m.reopens = 0
	qs = m.traced(w.newStream(newRNG(seed)), n)
	m.traces, nested = nil, m.traces
	m.nested = true
	m.traced(w.newStream(newRNG(seed)), min(n, nestedSample))
	m.traces, nested = nested, m.traces
	return m, qs, nested
}

// traced runs the first n jobs of the passes from next under a fresh
// tracer, changing sessions as the timed loop does. The jobs run on a new
// goroutine, whose stack is shallower than main's, for the same reason
// spans are opened inline in call.
func (m *mirror) traced(next func() []job, n int) []*tracedQuery {
	m.startTrace()
	qs := make([]*tracedQuery, 0, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(qs) < n {
			if m.w.sessionPasses > 0 && m.served == m.w.sessionPasses {
				m.renew()
			}
			for _, j := range next() {
				if len(qs) == n {
					break
				}
				qs = append(qs, m.exec(j))
			}
			m.served++
		}
	}()
	<-done
	m.endTrace()
	return qs
}
