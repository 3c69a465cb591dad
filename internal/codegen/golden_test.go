package codegen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"qcc/internal/codegen"
	"qcc/internal/plan"
	"qcc/internal/rt"
	"qcc/internal/tpcds"
	"qcc/internal/tpch"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_qir.sha256 from the current compiler output")

// goldenVariants is how many constant variants of each tpch.ParamQueries
// family the golden digest covers (the plan-cache experiment's count).
const goldenVariants = 8

// TestGoldenQIRDigest pins the compiler's output: one SHA-256 over the
// printed QIR (unchecked marks and pool slots included), the constant pool
// and the hoisting/check-elimination statistics of every TPC-H, TPC-DS and
// parameterized TPC-H variant plan under three option sets. Refactors of
// codegen, hoisting and sa must leave it unchanged; a change that moves it
// on purpose changes generated code, and one that changes which checks are
// eliminated must also bump codegen.CheckElimVersion. Regenerate with
// `go test ./internal/codegen -run TestGoldenQIRDigest -update-golden`.
func TestGoldenQIRDigest(t *testing.T) {
	optSets := []codegen.Options{
		{Elim: true, Hoist: true},
		{Elim: true, Hoist: true, Batch: true, Parallel: true},
		{Hoist: true},
	}
	type named struct {
		name  string
		build func() plan.Node
	}
	var hq, dsq []named
	for _, q := range tpch.Queries() {
		hq = append(hq, named{"tpch/" + q.Name, q.Build})
	}
	for _, fam := range tpch.ParamQueries() {
		for v := 0; v < goldenVariants; v++ {
			hq = append(hq, named{fmt.Sprintf("tpch/%s#%d", fam.Name, v), func() plan.Node { return fam.Build(v) }})
		}
	}
	for _, q := range tpcds.Queries() {
		dsq = append(dsq, named{"tpcds/" + q.Name, q.Build})
	}

	h := sha256.New()
	compiles := 0
	for _, wl := range []struct {
		load    func(*rt.Catalog, float64) error
		queries []named
	}{{tpch.Load, hq}, {tpcds.Load, dsq}} {
		m := vm.New(vm.Config{Arch: vt.VX64, MemSize: 128 << 20})
		cat := rt.NewCatalog(rt.NewDB(m))
		if err := wl.load(cat, 0.01); err != nil {
			t.Fatal(err)
		}
		for _, opts := range optSets {
			for _, q := range wl.queries {
				c, err := codegen.CompileOpts(q.name, q.build(), cat, opts)
				if err != nil {
					t.Fatalf("%s %+v: %v", q.name, opts, err)
				}
				fmt.Fprintf(h, "== %s %+v\n", q.name, opts)
				writeCompiled(h, c)
				compiles++
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))

	path := filepath.Join("testdata", "golden_qir.sha256")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s over %d compiles", path, compiles)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Errorf("golden QIR digest over %d compiles = %s, want %s: generated code or hoist/elim decisions changed",
			compiles, got, w)
	}
}

// writeCompiled renders everything the digest pins about one compilation.
func writeCompiled(w io.Writer, c *codegen.Compiled) {
	io.WriteString(w, c.Module.String())
	fmt.Fprintf(w, "pool %v\n", c.Module.Pool)
	fmt.Fprintf(w, "hoist %+v\n", c.Hoist)
	e := c.Elim
	reasons := make([]string, 0, len(e.ByReason))
	for r, n := range e.ByReason {
		reasons = append(reasons, fmt.Sprintf("%s=%d", r, n))
	}
	sort.Strings(reasons)
	fmt.Fprintf(w, "elim enabled=%v memops=%d unchecked=%d reasons=%v\n",
		e.Enabled, e.MemOps, e.Unchecked, reasons)
	for _, f := range e.Findings {
		fmt.Fprintf(w, "finding %s\n", f)
	}
}
