package codegen

import (
	"qcc/internal/obs"
	"qcc/internal/rt"
	"qcc/internal/vm"
)

var ctrPoolReuses = obs.NewCounter("exec_pool_reuses")

// arenaSize is the heap arena carved for each executor worker. A worker's
// stack lives in the top 1 MiB of its arena (the vm's fixed stack margin);
// the rest is the worker's heap for pipeline state and sink entries.
const arenaSize = 4 << 20

// ExecPool is a morsel-executor worker pool: per-worker arenas, machines,
// and scratch runtimes, re-armed (heap reset, handle/intern re-sync,
// runtime rebind) per query. RunParallel carves a transient pool out of the
// query's heap when it is given none. A persistent pool (NewExecPool) is
// built once, so fan-out cost drops from arena allocation + machine +
// runtime construction to a few pointer resets, which matters exactly in
// the plan-cache regime where compilation is already amortized and
// per-query overhead dominates.
//
// Create a persistent pool before db.Checkpoint(): the arenas must sit
// below the checkpoint mark or per-query ResetToCheckpoint would free them.
// The pool is single-owner like the DB itself — one query executes at a
// time.
type ExecPool struct {
	db    *rt.DB
	ws    []*worker
	marks []uint64 // per-worker post-construction heap marks
}

// NewExecPool carves jobs worker arenas out of db's heap and builds the
// worker machines and runtimes. Returns nil when jobs leaves nothing to
// pool (<= 1) or the heap cannot fit the arenas; given no persistent pool,
// RunParallel builds a transient one per query or runs sequentially.
func NewExecPool(db *rt.DB, jobs int) *ExecPool {
	if jobs <= 1 || db.M.HeapRoom() < uint64(jobs)*arenaSize+(1<<20) {
		return nil
	}
	pl := &ExecPool{db: db}
	for i := 0; i < jobs; i++ {
		base := db.M.Alloc(arenaSize)
		wm := vm.NewWorker(db.M, base, base+arenaSize)
		wdb := db.NewWorkerDB(wm)
		pl.ws = append(pl.ws, &worker{m: wm, db: wdb})
		pl.marks = append(pl.marks, wm.HeapMark())
	}
	return pl
}

// Jobs returns the pool's worker count.
func (pl *ExecPool) Jobs() int { return len(pl.ws) }

// acquire re-arms the pool for one query: worker heaps reset to their
// post-construction marks, worker runtimes re-synced against the main DB
// (whose intern map and handle table a ResetToCheckpoint may have replaced
// since the last query), fresh per-query state allocated, and the module's
// runtime imports bound. Returns nil if a bind fails, which sends the caller
// down the sequential path.
func (pl *ExecPool) acquire(c *Compiled) []*worker {
	for i, wk := range pl.ws {
		wk.m.ResetHeapTo(pl.marks[i])
		wk.db.ResetForQuery(pl.db)
		if err := wk.db.Bind(c.Module.RTNames); err != nil {
			return nil
		}
		wk.state = wk.m.Alloc(uint64(c.StateSize))
	}
	return pl.ws
}
