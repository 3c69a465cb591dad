package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"qcc"
	"qcc/internal/plan"
)

// result is the outcome of one submitted job.
type result struct {
	rows     [][]string
	err      error
	panicked bool
	// dur is the wall time of the qc call, plus the reopen after a panic.
	dur time.Duration
	// allocs is the Go heap bytes allocated inside the qc call.
	allocs uint64
}

// runner drives the public qc API, one closed-loop client. A panic out of
// a qc call fails that query and reopens the database it hit, since a
// panicking DB is in an unknown state.
type runner struct {
	w       *workload
	open    func(suite string) (*qc.DB, error)
	dbs     map[string]*qc.DB
	reopens int
	// served counts the passes the current databases ran in a timed loop;
	// sessions counts the fresh set-ups the loop made.
	served, sessions int
}

// newRunner opens the workload's databases. open overrides how a database
// is made (nil: qc.Open with the workload settings, then the load).
func newRunner(w *workload, open func(suite string) (*qc.DB, error)) *runner {
	if open == nil {
		open = func(suite string) (*qc.DB, error) {
			db, err := qc.Open(w.set.options()...)
			if err != nil {
				return nil, err
			}
			return db, loadSuite(db, suite, w.sf)
		}
	}
	r := &runner{w: w, open: open}
	r.openAll()
	return r
}

// openAll opens a database per suite. A failed open leaves nil; exec
// retries it.
func (r *runner) openAll() {
	r.dbs = map[string]*qc.DB{}
	for _, s := range r.w.suites {
		r.dbs[s], _ = r.safeOpen(s)
	}
}

// warmUp runs the workload's warm-up jobs, checking their results.
func (r *runner) warmUp(expect map[string]string, t *tally) {
	for _, j := range r.w.warmup {
		t.check(j, r.exec(j), expect)
	}
}

// safeOpen opens a database, turning a panic into an error.
func (r *runner) safeOpen(suite string) (db *qc.DB, err error) {
	defer func() {
		if p := recover(); p != nil {
			db, err = nil, fmt.Errorf("open %s: panic: %v", suite, p)
		}
	}()
	db, err = r.open(suite)
	if err != nil {
		return nil, err
	}
	return db, nil
}

// reopen replaces the database of suite after a failure.
func (r *runner) reopen(suite string) {
	r.reopens++
	r.dbs[suite], _ = r.safeOpen(suite)
}

// exec submits one job. The plan is built before the clock starts: plan
// construction is the caller's work, not qc's.
func (r *runner) exec(j job) result {
	var node plan.Node
	if j.sql == "" {
		node = j.build()
	}
	start := time.Now()
	if r.dbs[j.suite] == nil {
		r.reopen(j.suite)
		if r.dbs[j.suite] == nil {
			return result{err: fmt.Errorf("%s: database unavailable", j.suite), dur: time.Since(start)}
		}
	}
	a0 := heapAllocBytes()
	rows, err, panicked := callQC(r.dbs[j.suite], j, node)
	res := result{rows: rows, err: err, panicked: panicked, allocs: heapAllocBytes() - a0}
	if panicked {
		r.reopen(j.suite)
	}
	res.dur = time.Since(start)
	return res
}

func callQC(db *qc.DB, j job, node plan.Node) (rows [][]string, err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			rows, err, panicked = nil, fmt.Errorf("panic: %v", p), true
		}
	}()
	var res *qc.Result
	if j.sql != "" {
		res, err = db.ExecWith(j.engine, j.sql)
	} else {
		res, err = db.ExecPlan(j.engine, j.name, node)
	}
	if err != nil {
		return nil, err, false
	}
	return res.Rows, nil, false
}

// close drops the databases and hands their memory back before the next
// set-up, keeping the process small.
func (r *runner) close() {
	r.dbs = nil
	debug.FreeOSMemory()
}

// tally accumulates outcomes of checked jobs.
type tally struct {
	Attempted, Failed, Wrong int
	// Errors counts failures by message, with numbers stripped so one
	// failure kind shows as one entry.
	Errors map[string]int
}

// check scores one result against the expected digest and returns whether
// the query succeeded.
func (t *tally) check(j job, res result, expect map[string]string) bool {
	got := ""
	if res.err == nil {
		got = digest(res.rows)
	}
	return t.checkDigest(j, got, res.err, expect)
}

// checkDigest scores a result already reduced to its digest.
func (t *tally) checkDigest(j job, got string, err error, expect map[string]string) bool {
	t.Attempted++
	msg := ""
	switch want, ok := expect[j.id]; {
	case err != nil:
		msg = err.Error()
	case !ok:
		msg = "no expected digest for " + j.id
		t.Wrong++
	case got != want:
		msg = "wrong result for " + j.id + " on " + j.engine
		t.Wrong++
	default:
		return true
	}
	t.Failed++
	if t.Errors == nil {
		t.Errors = map[string]int{}
	}
	t.Errors[errorKind(msg)]++
	return false
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Wrong += o.Wrong
	for k, v := range o.Errors {
		if t.Errors == nil {
			t.Errors = map[string]int{}
		}
		t.Errors[k] += v
	}
}

func errorKind(msg string) string {
	if len(msg) > 120 {
		msg = msg[:120]
	}
	return strings.Map(func(r rune) rune {
		if r >= '0' && r <= '9' {
			return '#'
		}
		return r
	}, msg)
}

// engineLoop is one engine's share of a timed loop.
type engineLoop struct {
	ok   int
	secs float64
}

// loopStats summarizes a timed closed loop.
type loopStats struct {
	tally
	latMs    []float64
	busySecs float64
	wallSecs float64
	// passSecs is the summed call time of each pass.
	passSecs  []float64
	allocs    uint64
	perEngine map[string]*engineLoop
}

// loop runs passes from next, their jobs back to back, until budget has
// passed at the end of a pass (at least one pass). Checking a result is
// client work and stays off the clock (the summed call time), and so is a
// session change: when the databases have served sessionPasses passes,
// they are replaced by a fresh set-up, whose warm-up results go to warm.
func (r *runner) loop(next func() []job, budget time.Duration, expect map[string]string, warm *tally) *loopStats {
	ls := &loopStats{perEngine: map[string]*engineLoop{}}
	for _, e := range r.w.engines {
		ls.perEngine[e] = &engineLoop{}
	}
	t0 := time.Now()
	for done := false; !done; done = time.Since(t0) >= budget {
		if r.w.sessionPasses > 0 && r.served == r.w.sessionPasses {
			r.close()
			r.openAll()
			r.warmUp(expect, warm)
			runtime.GC() // as before the first timed pass
			r.served = 0
			r.sessions++
		}
		start := ls.busySecs
		for _, j := range next() {
			res := r.exec(j)
			secs := res.dur.Seconds()
			ls.busySecs += secs
			ls.latMs = append(ls.latMs, secs*1e3)
			ls.allocs += res.allocs
			pe := ls.perEngine[j.engine]
			pe.secs += secs
			if ls.check(j, res, expect) {
				pe.ok++
			}
		}
		ls.passSecs = append(ls.passSecs, ls.busySecs-start)
		r.served++
	}
	ls.wallSecs = time.Since(t0).Seconds()
	return ls
}

func (ls *loopStats) succeeded() int { return ls.Attempted - ls.Failed }

// setUp opens the databases and runs the warm-up jobs, returning the
// runner and the seconds it took. The first set-up of a process counts from
// process start.
func setUp(w *workload, expect map[string]string, t *tally, from time.Time) (*runner, float64) {
	r := newRunner(w, nil)
	r.warmUp(expect, t)
	return r, time.Since(from).Seconds()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes returns the cumulative Go heap bytes allocated by the
// process.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// quantile returns the q-quantile of xs by linear interpolation
// (the same rule as Python's statistics.quantiles with method="inclusive").
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// oomProbePasses bounds the OOM probe: the warm-up and this many passes.
const oomProbePasses = 5

// oomProbe is what one database of a session workload does when it is
// never replaced.
type oomProbe struct {
	// Served counts the queries that succeeded before the first failure,
	// or all of them (Cap) when none failed.
	Served  int    `json:"served"`
	Cap     int    `json:"cap"`
	Failure string `json:"first_failure,omitempty"`
}

// probeOOM opens one database with the workload's settings and runs the
// warm-up and then the seed's passes on it without a session change, until
// a query fails or the cap is reached. qc.DB never hands VM heap back, so on
// analytic-warm this measures after how many queries the heap runs out.
func probeOOM(w *workload, seed int64, expect map[string]string) *oomProbe {
	r := newRunner(w, nil)
	defer r.close()
	jobs := append([]job(nil), w.warmup...)
	next := w.newStream(newRNG(seed))
	for i := 0; i < oomProbePasses; i++ {
		jobs = append(jobs, next()...)
	}
	p := &oomProbe{Cap: len(jobs)}
	for _, j := range jobs {
		var t tally
		if !t.check(j, r.exec(j), expect) {
			for kind := range t.Errors {
				p.Failure = kind
			}
			break
		}
		p.Served++
	}
	return p
}
