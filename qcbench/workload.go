package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"qcc"
	"qcc/internal/plan"
	"qcc/internal/tpcds"
	"qcc/internal/tpch"
)

// job is one query submission: a SQL text or a hand-built plan, the engine
// it runs on, and the suite (database) it runs against. id keys the
// expected result digest.
type job struct {
	id     string
	suite  string
	engine string
	name   string
	sql    string
	build  func() plan.Node
}

// settings are the qc.Open options a workload uses, kept as plain values so
// the traced mirror can configure itself identically.
type settings struct {
	MemMB    int  `json:"mem_mb"`
	CacheMB  int  `json:"cache_mb"`
	Batch    bool `json:"batch"`
	ExecJobs int  `json:"exec_jobs"`
}

func (s settings) options() []qc.Option {
	opts := []qc.Option{qc.WithMemoryMB(s.MemMB), qc.WithBatch(s.Batch)}
	if s.CacheMB > 0 {
		opts = append(opts, qc.WithCacheMB(s.CacheMB))
	}
	if s.ExecJobs > 0 {
		opts = append(opts, qc.WithExecJobs(s.ExecJobs))
	}
	return opts
}

// workload describes one benchmark input set. Jobs come in passes from an
// endless stream made by newStream from the seed; the timed loop and the
// traced replay both start it from the same seed, so the replay covers the
// loop's prefix. The timed loop ends only at a pass boundary, so every run
// measures whole passes and a seed changes the order, not the mix.
type workload struct {
	name    string
	sf      float64
	suites  []string
	set     settings
	engines []string
	// warmup runs during set-up, after the load and before the first timed
	// query.
	warmup []job
	// setups is how many set-ups a --trace 0 run measures for setup_s.
	setups int
	// jobs lists every job the stream can draw.
	jobs []job
	// newStream returns the pass stream for a seed.
	newStream func(rng *rand.Rand) func() []job
	// sessionPasses is how many passes one set of databases serves before
	// the client replaces it with a fresh set-up (open, load, warm-up) off
	// the clock; 0 keeps the set-up's databases for the whole run.
	sessionPasses int
	// traced is how many jobs the traced replay runs. A fixed count, not a
	// time budget, so two traced runs of one seed do identical work.
	traced int
}

func workloadNames() []string { return []string{"compile-cold", "dashboard-sql", "analytic-warm"} }

func getWorkload(name string) (*workload, error) {
	switch name {
	case "compile-cold":
		return compileCold(), nil
	case "dashboard-sql":
		return dashboardSQL(), nil
	case "analytic-warm":
		return analyticWarm(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// suiteJobs returns one job per query of a plan suite on engine.
func suiteJobs(suite string, sf float64, engine string) []job {
	var out []job
	add := func(name string, build func() plan.Node) {
		out = append(out, job{
			id: fmt.Sprintf("%s@%g/%s", suite, sf, name), suite: suite, engine: engine,
			name: name, build: build,
		})
	}
	switch suite {
	case "tpch":
		for _, q := range tpch.Queries() {
			add(q.Name, q.Build)
		}
	case "tpcds":
		for _, q := range tpcds.Queries() {
			add(q.Name, q.Build)
		}
	}
	return out
}

// passStream makes every pass all of jobs, in a fresh shuffled order.
func passStream(jobs []job) func(rng *rand.Rand) func() []job {
	return func(rng *rand.Rand) func() []job {
		return func() []job {
			order := append([]job(nil), jobs...)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			return order
		}
	}
}

// compileCold is the paper's setting: every query is compiled, so the
// back-end phases and the front half do most of the work. Every TPC-H and
// TPC-DS plan runs on every engine, interleaved, with the cache off; the
// two suites get their own database.
func compileCold() *workload {
	const sf = 0.01
	var all, warm []job
	for _, e := range qc.Engines() {
		for _, s := range []string{"tpch", "tpcds"} {
			js := suiteJobs(s, sf, e)
			all = append(all, js...)
			warm = append(warm, js[0])
		}
	}
	return &workload{
		name: "compile-cold", sf: sf, suites: []string{"tpch", "tpcds"},
		set:       settings{MemMB: 512},
		engines:   qc.Engines(),
		warmup:    warm,
		setups:    9,
		jobs:      all,
		newStream: passStream(all),
		traced:    len(all),
	}
}

// analyticWarm is the exec-bound setting: the 22 TPC-H plans at sf 1 on
// the optimizing LLVM-like engine, batch kernels and the morsel-parallel
// executor on, a warm cache. qc.DB never hands VM heap back, and every
// query here keeps about 8 MiB of it (two 4 MiB worker arenas), so the
// default 512 MiB holds the warm-up pass and one timed pass (44 queries)
// with room to spare but runs out after 63 to 85: each database
// serves one timed pass and is then replaced. vm.oom_after_queries measures
// that limit on every traced run.
func analyticWarm() *workload {
	const sf = 1
	js := suiteJobs("tpch", sf, "llvm-opt")
	return &workload{
		name: "analytic-warm", sf: sf, suites: []string{"tpch"},
		set:           settings{MemMB: 512, CacheMB: 64, Batch: true, ExecJobs: runtime.GOMAXPROCS(0)},
		engines:       []string{"llvm-opt"},
		warmup:        js,
		setups:        5, // a set-up takes about a second
		jobs:          js,
		newStream:     passStream(js),
		sessionPasses: 1,
		traced:        2 * len(js),
	}
}

// dashboardVariants is how many literal variants each dashboard template
// has; the Zipf draw picks among them, variant k having rank k.
const dashboardVariants = 64

// dashboardPass is how many draws make one dashboard-sql pass.
const dashboardPass = 100

// template is one dashboard query shape; sql(v) instantiates variant v.
type template struct {
	name string
	sql  func(v int) string
}

// dec2 formats cents as a scale-2 SQL decimal literal.
func dec2(cents int) string { return fmt.Sprintf("%d.%02d", cents/100, cents%100) }

// dashboardTemplates are modelled on the tpch/variants.go families: only
// predicate literals vary, so constant hoisting maps every variant of a
// template to one cached body.
func dashboardTemplates() []template {
	return []template{
		{"filter-sum", func(v int) string {
			lo := 8000 + (v*37)%2100
			return fmt.Sprintf("SELECT SUM(l_extendedprice * l_discount) AS revenue, COUNT(*) AS n FROM lineitem "+
				"WHERE l_shipdate >= %d AND l_shipdate < %d AND l_discount BETWEEN %s AND %s AND l_quantity < %s",
				lo, lo+365, dec2(2+v%3), dec2(4+v%3), dec2(20+v%10))
		}},
		{"scan-group", func(v int) string {
			return fmt.Sprintf("SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "+
				"SUM(l_extendedprice) AS sum_price, COUNT(*) AS n FROM lineitem WHERE l_shipdate <= %d "+
				"GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus", 10400-15*v)
		}},
		{"group-count", func(v int) string {
			lo := 8000 + 37*v
			return fmt.Sprintf("SELECT o_orderpriority, COUNT(*) AS n FROM orders "+
				"WHERE o_orderdate >= %d AND o_orderdate < %d GROUP BY o_orderpriority ORDER BY o_orderpriority",
				lo, lo+90)
		}},
		{"join-orders", func(v int) string {
			return fmt.Sprintf("SELECT c_mktsegment, COUNT(*) AS n, SUM(o_totalprice) AS total "+
				"FROM customer JOIN orders ON c_custkey = o_custkey WHERE c_acctbal > %s AND o_orderdate < %d "+
				"GROUP BY c_mktsegment ORDER BY c_mktsegment", dec2(v*10000), 8500+30*v)
		}},
	}
}

func dashboardJob(t template, v int) job {
	return job{
		id: fmt.Sprintf("dash/%s/%d", t.name, v), suite: "tpch", engine: "directemit",
		name: t.name, sql: t.sql(v),
	}
}

// zipfCum returns the cumulative Zipf(s) distribution over n ranks.
func zipfCum(n int, s float64) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return cum
}

// dashboardSQL is the repeated-query setting: SQL text through
// ExecWith("directemit", ...) with the cache on and the default executor.
// After warm-up every query should be a cache hit, leaving parse, the front
// half, the cache lookup and a short execution. The seed picks the draws
// only: which variants are popular is fixed, because their literals differ
// in selectivity and so in execution time.
func dashboardSQL() *workload {
	const sf = 0.01
	ts := dashboardTemplates()
	var warm, all []job
	for _, t := range ts {
		warm = append(warm, dashboardJob(t, 0))
		for v := 0; v < dashboardVariants; v++ {
			all = append(all, dashboardJob(t, v))
		}
	}
	cum := zipfCum(dashboardVariants, 1.1)
	return &workload{
		name: "dashboard-sql", sf: sf, suites: []string{"tpch"},
		set:     settings{MemMB: 512, CacheMB: 64},
		engines: []string{"directemit"},
		warmup:  warm,
		setups:  9,
		jobs:    all,
		newStream: func(rng *rand.Rand) func() []job {
			return func() []job {
				pass := make([]job, dashboardPass)
				for i := range pass {
					t := ts[rng.Intn(len(ts))]
					k := sort.SearchFloat64s(cum, rng.Float64())
					if k >= dashboardVariants {
						k = dashboardVariants - 1
					}
					pass[i] = dashboardJob(t, k)
				}
				return pass
			}
		},
		traced: 2000,
	}
}

// loadSuite fills db with a suite's tables at sf.
func loadSuite(db *qc.DB, suite string, sf float64) error {
	if suite == "tpcds" {
		return db.LoadTPCDS(sf)
	}
	return db.LoadTPCH(sf)
}
