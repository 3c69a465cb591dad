#!/bin/sh
# ci.sh — the checks a change must pass before merging:
#   1. go vet
#   2. full build
#   3. tests under the race detector (exercises the concurrent obs counters
#      and the parallel compilation driver's worker pool)
#   4. a smoke run of the benchmark harness emitting the stable JSON report
#   5. the verification stack (qir verifier, regalloc checker, machine lint,
#      cross-backend differential) over the TPC-H suite on both targets —
#      once sequentially per arch, once through the parallel driver (-jobs 4)
#   6. a -nofuse smoke run, proving the unfused dispatch path stays healthy
#   7. a qprof smoke run (one TPC-H query per arch): the profiler must
#      produce a valid qcc.prof/v1 report attributing >= 95% of sampled VM
#      time to named plan operators
#   8. the profiler overhead gate: qbench prof fails the build when the
#      geomean sampling overhead exceeds 10% (generous at CI's tiny scale
#      factor, where per-query times are microseconds and noisy; the
#      EXPERIMENTS.md numbers at sf 0.05 are the honest measurement)
#   9. the static-analysis lint gate: qlint over TPC-H on both targets must
#      report zero findings (unreachable blocks, dead stores, always-trap
#      accesses, range contradictions) in the generated QIR
#  10. the check-elimination gates: the strict unchecked differential (every
#      eliminated check re-validated at runtime across all back-ends, both
#      archs, under the race detector) plus qbench checkelim -checkelim-gate
#      0.3, which fails when less than 30% of Q1/Q6 static checks are proven
#      redundant
#  11. the parallel-executor differential under the race detector: every
#      TPC-H query, both archs, batch kernels off and on, at 1/2/4/8 workers
#      must produce byte-identical ordered output to the sequential
#      tuple-at-a-time reference (and the actually-parallel guard proves the
#      workers really ran — no silent sequential fallback)
#  12. the batch/parallel exec gate: qbench batch -batch-gate 1.3 fails when
#      q1 or q6 falls below a 1.3x parallel speedup at 4 workers, or when
#      the single-worker batch path regresses the tuple baseline by more
#      than 25% on any query
#  13. the hoist differential under the race detector: every TPC-H and
#      TPC-DS query with literals pooled vs baked inline must produce
#      identical rows on every back-end (short mode: vx64), plus the
#      trap-boundary corpus (literals exactly on overflow/div-zero edges
#      must trap identically, with deterministic trap PCs, in both modes)
#  14. the plan-cache gate: qbench cache fails when constant-only variants
#      of the parameterized TPC-H families hit the warm cache below 90% on
#      any compiling back-end, or when pooled (hoisted) bodies regress
#      inline-literal execution by more than 3% pooled geomean
#  15. the benchmark's own tests (qcbench is a separate Go module, so step 3
#      does not reach it): workload digest coverage, crash containment and
#      the BENCHMARK.json <-> metric list agreement, in short mode
#
# The unchecked-conservation check (QIR marks must survive into every
# back-end's machine code) runs inside step 5 as part of qverify.
#
# The fused-vs-unfused conformance gate (identical results, counters and
# trap PCs on every TPC-H query, all back-ends, both archs) runs inside
# step 3 as TestFusedDispatchDifferential under the race detector.
set -eu

cd "$(dirname "$0")"

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== qbench smoke (-sf 0.01 -json) =="
tmp="$(mktemp -t qbench-report.XXXXXX.json)"
trap 'rm -f "$tmp"' EXIT
go run ./cmd/qbench -sf 0.01 -json "$tmp"
grep -q '"schema": "qcc.obs.report/v2"' "$tmp"
echo "report OK: $tmp"

echo "== qbench smoke (-sf 0.01 -nofuse) =="
go run ./cmd/qbench -sf 0.01 -nofuse table3

echo "== qverify (tpch, vx64 + va64) =="
go run ./cmd/qverify -sf 0.01
go run ./cmd/qverify -sf 0.01 -arch va64

echo "== qverify (tpch, vx64, parallel driver -jobs 4) =="
go run ./cmd/qverify -sf 0.01 -jobs 4

echo "== qprof smoke (q6, vx64 + va64) =="
ptmp="$(mktemp -t qprof-report.XXXXXX.json)"
trap 'rm -f "$tmp" "$ptmp"' EXIT
for arch in vx64 va64; do
	go run ./cmd/qprof -arch "$arch" -query q6 -sf 0.01 -runs 4 -period 4096 \
		-format json -o "$ptmp"
	grep -q '"schema": "qcc.prof/v1"' "$ptmp"
	# At least 95% of samples must resolve to a named plan operator.
	go run ./cmd/qprof -format top "$ptmp" | grep -qE '9[5-9]\.[0-9]+% attributed|100\.0+% attributed'
	echo "qprof $arch OK"
done

echo "== qbench prof overhead gate (sf 0.01, budget 10%) =="
go run ./cmd/qbench -sf 0.01 -runs 3 -prof-budget 10 prof

echo "== qlint (tpch, vx64 + va64) =="
go run ./cmd/qlint -sf 0.01 -workload tpch
go run ./cmd/qlint -sf 0.01 -workload tpch -arch va64

echo "== strict unchecked differential (-race) =="
go test -race ./internal/backend/conformance/ \
	-run 'TestStrictUncheckedTPCHDifferential|TestAdversarialTrapCorpus|TestStrictCatchesBadElimination' -count=1

echo "== qbench checkelim gate (sf 0.01, >= 30% on q1/q6) =="
go run ./cmd/qbench -sf 0.01 -runs 2 -checkelim-gate 0.3 checkelim >/dev/null

echo "== parallel executor differential (-race) =="
go test -race ./internal/backend/conformance/ \
	-run 'TestParallelDifferential|TestParallelActuallyParallel' -count=1

echo "== qbench batch exec gate (sf 0.05, >= 1.3x on q1/q6 at 4 workers) =="
go run ./cmd/qbench -sf 0.05 -runs 3 -exec-jobs 4 -batch-gate 1.3 batch >/dev/null

echo "== hoist differential (-race, short) =="
go test -race -short ./internal/backend/conformance/ \
	-run 'TestHoistDifferential|TestHoistTrapBoundaryCorpus' -count=1

echo "== qbench plan-cache gate (sf 0.05, >= 90% warm hits, <= 3% exec regression) =="
go run ./cmd/qbench -sf 0.05 -runs 3 -cache-gate 0.9 cache >/dev/null

echo "== qcbench tests (short) =="
(cd qcbench && go test -short .)

echo "== ci.sh: all checks passed =="
