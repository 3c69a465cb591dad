// Command qcbench is the repository benchmark. It drives the public qc API
// in a closed loop with one client on one workload and prints the
// end-to-end metrics (--trace 0), or replays the same job stream through a
// mirror of qc.DB with a span around every layer call and prints the
// per-layer metrics (--trace 1). See README.md.
//
//	go run . --workload dashboard-sql --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"qcc/internal/obs"
)

var procStart = time.Now()

// outDir receives run records and traces, relative to the checkout root
// the benchmark runs from.
var outDir = filepath.Join(".bench_build", "qcbench")

func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// metricOut is one printed metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// record describes the run: host, build, settings, counts and spread.
type record struct {
	Schema       string             `json:"schema"`
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"seconds"`
	Trace        int                `json:"trace"`
	NumCPU       int                `json:"nproc"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	GoVersion    string             `json:"go_version"`
	Revision     string             `json:"revision"`
	SF           float64            `json:"scale_factor"`
	Engines      []string           `json:"engines"`
	Settings     settings           `json:"settings"`
	SetupSecs    []float64          `json:"setup_s_runs"`
	Queries      int                `json:"timed_queries"`
	WallSecs     float64            `json:"timed_wall_s"`
	BusySecs     float64            `json:"timed_busy_s"`
	PassSecs     []float64          `json:"timed_pass_s"`
	LatencyMs    [4]float64         `json:"latency_ms_p25_p50_p75_p90"`
	Spread       float64            `json:"latency_iqr_over_median"`
	Reopens      int                `json:"qc_reopens"`
	Sessions     int                `json:"fresh_sessions,omitempty"`
	Errors       map[string]int     `json:"failures_by_kind,omitempty"`
	Wrong        int                `json:"wrong_results"`
	Traced       int                `json:"traced_queries,omitempty"`
	MirrorReopen int                `json:"mirror_reopens,omitempty"`
	Fingerprint  string             `json:"deterministic_fingerprint,omitempty"`
	Layers       map[string]float64 `json:"layer_self_ms,omitempty"`
	OOMProbe     *oomProbe          `json:"oom_probe,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "qcbench:", err)
		os.Exit(1)
	}
}

func run() error {
	wname := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for job order and variant draws")
	seconds := flag.Int("seconds", 10, "seconds the timed loop runs, ending at a pass boundary")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	gen := flag.String("gen-digests", "", "run every job on every engine and write the expected digests to this file")
	setupOnly := flag.Bool("setup-only", false, "set up once, print the set-up record and exit (used by --trace 0 runs)")
	flag.Parse()

	if *gen != "" {
		return genDigests(*gen)
	}
	w, err := getWorkload(*wname)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	expect, err := expectedDigests()
	if err != nil {
		return err
	}
	if *setupOnly {
		var warm tally
		_, secs := setUp(w, expect, &warm, procStart)
		return json.NewEncoder(os.Stdout).Encode(setupResult{Secs: secs, Warm: warm})
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rec := &record{
		Schema: "qcbench.run/v1", Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: revision(), SF: w.sf, Engines: w.engines, Settings: w.set,
	}
	budget := time.Duration(*seconds) * time.Second
	var out *output
	if *trace == 0 {
		out, err = runPlain(w, *seed, budget, expect, rec)
	} else {
		out, err = runTraced(w, *seed, budget, expect, rec)
	}
	if err != nil {
		return err
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-trace%d-seed%d.record.json", w.name, *trace, *seed)
	if err := os.WriteFile(filepath.Join(outDir, name), append(recJSON, '\n'), 0o644); err != nil {
		return err
	}
	outJSON, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", recJSON, outJSON)
	return nil
}

// setupResult is what a --setup-only child reports.
type setupResult struct {
	Secs float64 `json:"setup_s"`
	Warm tally   `json:"warmup"`
}

// childSetUp runs one set-up in a fresh process of this program.
func childSetUp(w *workload) (setupResult, error) {
	var res setupResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	out, err := exec.Command(exe, "--workload", w.name, "--setup-only").Output()
	if err != nil {
		return res, fmt.Errorf("set-up child: %w", err)
	}
	return res, json.Unmarshal(out, &res)
}

// runPlain is the --trace 0 run: this process's set-up, more set-ups in
// child processes, then the timed closed loop.
func runPlain(w *workload, seed int64, budget time.Duration, expect map[string]string, rec *record) (*output, error) {
	var warm tally
	r, secs := setUp(w, expect, &warm, procStart)
	rec.SetupSecs = append(rec.SetupSecs, secs)
	// Each set-up but the first runs in a fresh child process, so every one
	// counts from process start as a user's would.
	for i := 1; i < w.setups; i++ {
		res, err := childSetUp(w)
		if err != nil {
			return nil, err
		}
		rec.SetupSecs = append(rec.SetupSecs, res.Secs)
		warm.merge(res.Warm)
	}
	ls := timedLoop(r, w, seed, budget, expect, rec, &warm)
	m := map[string]float64{
		"setup_s":            median(rec.SetupSecs),
		"qps":                ratio(float64(ls.succeeded()), ls.busySecs),
		"latency_p50_ms":     quantile(ls.latMs, 0.5),
		"latency_p90_ms":     quantile(ls.latMs, 0.9),
		"alloc_kb_per_query": ratio(float64(ls.allocs)/1024, float64(ls.Attempted)),
	}
	return finish(m, endToEndSpecs(), &warm, &ls.tally, rec), nil
}

// timedLoop runs the seed's job stream for budget and fills the record.
// Warm-ups of fresh sessions are checked into warm.
func timedLoop(r *runner, w *workload, seed int64, budget time.Duration, expect map[string]string, rec *record, warm *tally) *loopStats {
	r.reopens = 0
	runtime.GC()
	ls := r.loop(w.newStream(newRNG(seed)), budget, expect, warm)
	rec.Queries, rec.WallSecs, rec.BusySecs, rec.PassSecs = ls.Attempted, ls.wallSecs, ls.busySecs, ls.passSecs
	rec.Reopens, rec.Sessions = r.reopens, r.sessions
	rec.LatencyMs = [4]float64{quantile(ls.latMs, 0.25), quantile(ls.latMs, 0.5), quantile(ls.latMs, 0.75), quantile(ls.latMs, 0.9)}
	rec.Spread = ratio(rec.LatencyMs[2]-rec.LatencyMs[0], rec.LatencyMs[1])
	return ls
}

// runTraced is the --trace 1 run: one set-up and an untraced timed loop
// (the baseline for trace.overhead and the per-engine throughput), then the
// traced replay through the mirror.
func runTraced(w *workload, seed int64, budget time.Duration, expect map[string]string, rec *record) (*output, error) {
	var warm tally
	r, s := setUp(w, expect, &warm, procStart)
	rec.SetupSecs = []float64{s}
	ls := timedLoop(r, w, seed, budget, expect, rec, &warm)
	r.close()
	if w.sessionPasses > 0 {
		rec.OOMProbe = probeOOM(w, seed, expect)
	}

	m, qs, nested := replay(w, seed, w.traced)
	var traced tally
	for _, q := range qs {
		traced.checkDigest(q.job, q.digest, q.err, expect)
	}
	lt := selfTimes(m.traces, qs)
	rec.Traced, rec.MirrorReopen, rec.Fingerprint = len(qs), m.reopens, fingerprint(qs)
	rec.Layers = map[string]float64{}
	for _, l := range layerOrder {
		rec.Layers[l] = float64(lt.self[l]) / 1e6
	}
	lt.write(os.Stderr, fmt.Sprintf("%s seed %d: self time per layer over %d traced queries", w.name, seed, len(qs)))

	f, err := os.Create(filepath.Join(outDir, w.name+".trace.json"))
	if err != nil {
		return nil, err
	}
	if err := obs.WriteChrome(f, append(m.traces, nested...)...); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	vals := layerMetrics(qs, m, lt, ls, rec.LatencyMs[1], rec.Reopens)
	if rec.OOMProbe != nil {
		vals["vm.oom_after_queries"] = float64(rec.OOMProbe.Served)
	}
	ls.tally.merge(traced)
	return finish(vals, layerSpecs(), &warm, &ls.tally, rec), nil
}

// finish builds the output line. Failed counts the timed (and traced)
// queries; a wrong result anywhere, warm-up included, makes it incorrect.
func finish(vals map[string]float64, specs []spec, warm, t *tally, rec *record) *output {
	out := &output{
		Correct:   warm.Wrong == 0 && t.Wrong == 0,
		Attempted: t.Attempted,
		Failed:    t.Failed,
		Metrics:   map[string]metricOut{},
	}
	for _, s := range specs {
		out.Metrics[s.name] = metricOut{Value: vals[s.name], Unit: s.unit}
	}
	rec.Wrong = warm.Wrong + t.Wrong
	rec.Errors = map[string]int{}
	for _, src := range []*tally{warm, t} {
		for k, v := range src.Errors {
			rec.Errors[k] += v
		}
	}
	return out
}

// revision names the source the benchmark was built from: QCBENCH_REV
// (set by run.py) or the VCS stamp of the build.
func revision() string {
	if r := os.Getenv("QCBENCH_REV"); r != "" {
		return r
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
