package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// gridCell is one scenario cell of a figure/table grid: the scenario to
// evaluate, a tag for error context, and the slot its metrics land in.
type gridCell struct {
	tag string
	scn Scenario
	m   *Metrics
}

// runGrid evaluates every cell, fanning the independent cells out across
// workers. Figure generators used to sweep their grids sequentially, so
// a bench-scale config (2 trials per cell) starved Run's trial-level
// parallelism; cell-level fan-out keeps all cores busy regardless of the
// per-cell trial count.
//
// Cells and trials are the harness's only two levels of parallelism:
// each trial samples its counts sequentially (SimulateGenuineCounts),
// and the cell worker count shares the CPU budget with Run's trial
// workers, so total goroutine count (and, at report-level paper scale,
// total resident report arenas) stays ~GOMAXPROCS-bounded instead of
// multiplying the pools.
//
// Parallelism cannot change any number: each cell derives all of its
// randomness from its own scenario seed, and results land in cell order,
// so the output is bit-identical to the sequential sweep. The first
// cell (in grid order) that fails determines the returned error, and a
// failure stops further cells from being dispatched.
func runGrid(cells []*gridCell) error {
	procs := runtime.GOMAXPROCS(0)
	perCell := DefaultTrials
	if len(cells) > 0 {
		if t := cells[0].scn.Trials; t > 0 {
			perCell = t
		}
	}
	workers := (procs + perCell - 1) / perCell
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		for _, c := range cells {
			m, err := Run(c.scn)
			if err != nil {
				return fmt.Errorf("%s: %w", c.tag, err)
			}
			c.m = m
		}
		return nil
	}
	errs := make([]error, len(cells))
	var failed atomic.Bool
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if failed.Load() {
					continue // fail fast: drain without running
				}
				m, err := Run(cells[i].scn)
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", cells[i].tag, err)
					failed.Store(true)
					continue
				}
				cells[i].m = m
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
