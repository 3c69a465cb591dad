package codegen

import (
	"fmt"

	"qcc/internal/rt"
)

// CallFunc invokes compiled function fn of the query with the given integer
// arguments. Back-ends provide this; the driver stays back-end agnostic.
type CallFunc func(fn int, args ...uint64) ([2]uint64, error)

// DefaultMorselSize is the driver's scan granularity, the morsel-driven
// parallelism unit from the paper. Sequential execution runs the same
// morsels in order on the calling goroutine.
const DefaultMorselSize = 16384

// Run executes a compiled query against db sequentially: RunParallel at one
// worker. It allocates and zeroes the query state, then for every pipeline
// runs setup, the main function once per morsel of the pipeline's source,
// and cleanup. Results accumulate in db.Out.
func Run(db *rt.DB, cat *rt.Catalog, c *Compiled, call CallFunc) error {
	return RunParallel(db, cat, c, call, ExecOptions{})
}

func sourceRows(db *rt.DB, cat *rt.Catalog, p *Pipeline, state uint64) (int64, error) {
	switch p.Source {
	case SrcTable:
		t, err := cat.Table(p.Table)
		if err != nil {
			return 0, err
		}
		return t.Rows, nil
	case SrcGroups, SrcVector:
		h, err := db.ReadU64(state + uint64(p.SourceOff))
		if err != nil {
			return 0, err
		}
		return db.HandleCount(h)
	}
	return 0, fmt.Errorf("codegen: bad source kind %d", p.Source)
}
