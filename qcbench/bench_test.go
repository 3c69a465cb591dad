package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"qcc"
)

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func mustDigests(t *testing.T) map[string]string {
	t.Helper()
	exp, err := expectedDigests()
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// The known parser crash (an aggregate other than COUNT over *) must cost
// one failed query, not the run, and the database must serve the next one.
func TestRunnerSurvivesParserCrash(t *testing.T) {
	w := dashboardSQL()
	w.suites = []string{"t"}
	r := newRunner(w, func(string) (*qc.DB, error) {
		db, err := qc.Open()
		if err != nil {
			return nil, err
		}
		tbl, err := db.CreateTable("t", 2, qc.Column{Name: "a", Type: qc.Int64})
		if err != nil {
			return nil, err
		}
		for _, v := range []int64{3, 4} {
			if err := tbl.Append(v); err != nil {
				return nil, err
			}
		}
		return db, nil
	})
	var tl tally
	crash := job{id: "crash", suite: "t", engine: "directemit", sql: "select 1,sum(*) from t"}
	tl.check(crash, r.exec(crash), map[string]string{})
	if tl.Attempted != 1 || tl.Failed != 1 || tl.Wrong != 0 {
		t.Fatalf("tally after crash = %+v, want one failure", tl)
	}
	count := job{id: "count", suite: "t", engine: "directemit", sql: "SELECT COUNT(*) FROM t"}
	if !tl.check(count, r.exec(count), map[string]string{"count": digest([][]string{{"2"}})}) {
		t.Fatalf("query after the crash failed: %+v", tl)
	}
	t.Logf("reopens after crash: %d, failures: %v", r.reopens, tl.Errors)
}

// A memory size too small for the load fails every query once, without
// taking the runner down.
func TestRunnerSurvivesMemoryTooSmallForLoad(t *testing.T) {
	w := analyticWarm()
	w.set.MemMB = 1
	r := newRunner(w, nil)
	var tl tally
	exp := mustDigests(t)
	for _, j := range w.warmup[:2] {
		tl.check(j, r.exec(j), exp)
	}
	if tl.Attempted != 2 || tl.Failed != 2 || tl.Wrong != 0 {
		t.Fatalf("tally = %+v, want two failures and no wrong results", tl)
	}
	if r.reopens != 2 {
		t.Fatalf("reopens = %d, want 2 (one open attempt per query)", r.reopens)
	}
}

// smallCold is compile-cold cut to eight TPC-H queries, so one pass is 56
// jobs.
func smallCold() *workload {
	w := compileCold()
	var jobs []job
	for _, e := range qc.Engines() {
		jobs = append(jobs, suiteJobs("tpch", w.sf, e)[:8]...)
	}
	w.suites = []string{"tpch"}
	w.warmup = nil
	w.jobs = jobs
	w.newStream = passStream(jobs)
	w.traced = len(jobs)
	return w
}

// Two traced runs of one seed must give identical deterministic counts; a
// different seed may change only the order (compile-cold) or the draws
// (dashboard-sql), never what one job computes.
func TestTracedRunDeterministic(t *testing.T) {
	dash := dashboardSQL()
	dash.traced = 300
	for _, w := range []*workload{smallCold(), dash} {
		t.Run(w.name, func(t *testing.T) {
			exp := mustDigests(t)
			_, a, _ := replay(w, 7, w.traced)
			_, b, _ := replay(w, 7, w.traced)
			for _, q := range a {
				var tl tally
				if !tl.checkDigest(q.job, q.digest, q.err, exp) {
					t.Fatalf("%s on %s failed: %v", q.job.id, q.job.engine, tl.Errors)
				}
			}
			if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
				t.Fatalf("same seed, fingerprints %s and %s differ", fa, fb)
			}
			_, c, _ := replay(w, 8, w.traced)
			if fingerprint(a) == fingerprint(c) {
				t.Fatalf("seeds 7 and 8 ran the same sequence")
			}
			byJob := map[string]string{}
			for i, line := range deterministicLines(a) {
				byJob[a[i].job.id+" "+a[i].job.engine] = line
			}
			for i, line := range deterministicLines(c) {
				if want, ok := byJob[c[i].job.id+" "+c[i].job.engine]; ok && want != line {
					t.Errorf("job counts depend on the seed:\n%s%s", want, line)
				}
			}
			if w.name == "compile-cold" {
				la, lc := deterministicLines(a), deterministicLines(c)
				sort.Strings(la)
				sort.Strings(lc)
				if !reflect.DeepEqual(la, lc) {
					t.Errorf("a pass under another seed ran other jobs")
				}
			}
		})
	}
}

// Every job a workload can draw has an expected digest, and the seven
// TPC-DS queries that return no rows at sf 0.01 are the documented ones.
func TestDigestsCoverEveryJob(t *testing.T) {
	exp := mustDigests(t)
	var empty []string
	for _, name := range workloadNames() {
		w, err := getWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range w.jobs {
			d, ok := exp[j.id]
			if !ok {
				t.Errorf("no digest for %s", j.id)
			}
			if ok && strings.HasPrefix(d, "0:") && !contains(empty, j.id) {
				empty = append(empty, j.id)
			}
		}
	}
	want := []string{"tpcds@0.01/q34", "tpcds@0.01/q35", "tpcds@0.01/q36", "tpcds@0.01/q37",
		"tpcds@0.01/q40", "tpcds@0.01/q44", "tpcds@0.01/q45"}
	if !reflect.DeepEqual(empty, want) {
		t.Errorf("queries with no rows = %v, want %v", empty, want)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndSpecs())
	check("per_layer", bj.PerLayer, layerSpecs())
}

// The OOM probe keeps one database for every pass and stops at its first
// failure: with room for a handful of 8 MiB worker-arena pairs it must stop
// early, on the heap running out. At the workload's 512 MiB, the timed
// loop's sessions run two passes without a failure, changing session once.
func TestOOMProbeAndSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("loads TPC-H at sf 1 three times")
	}
	w := analyticWarm()
	w.set.MemMB = 64
	exp := mustDigests(t)
	p := probeOOM(w, 3, exp)
	if p.Served >= p.Cap || !strings.Contains(p.Failure, "out of memory") {
		t.Fatalf("probe = %+v, want a vm out-of-memory failure before the cap", p)
	}
	w.set.MemMB = 512
	r := newRunner(w, nil)
	var warm tally
	r.warmUp(exp, &warm)
	ls := r.loop(w.newStream(newRNG(3)), 1, exp, &warm)
	if ls.Failed != 0 || warm.Failed != 0 || ls.Attempted != len(w.jobs) {
		t.Fatalf("session loop: %+v, warm-up %+v", ls.tally, warm)
	}
	ls = r.loop(w.newStream(newRNG(3)), 1, exp, &warm)
	if r.sessions != 1 || ls.Failed != 0 || warm.Attempted != 2*len(w.jobs) {
		t.Fatalf("second pass: sessions %d, %+v, warm-up %+v", r.sessions, ls.tally, warm)
	}
}
