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

// wrap prefixes err with the cell's tag; Run's single untagged cell
// returns it bare.
func (c *gridCell) wrap(err error) error {
	if c.tag == "" {
		return err
	}
	return fmt.Errorf("%s: %w", c.tag, err)
}

// runGrid evaluates every cell and stores its trial-mean metrics. All
// (cell, trial) jobs share one queue served by GOMAXPROCS workers, so a
// grid keeps every core busy whatever its cells' trial counts, and the
// goroutine count (and, at report-level paper scale, the resident report
// arenas) stays GOMAXPROCS-bounded. Each trial samples its counts
// sequentially (SimulateGenuineCounts); there is no other level of
// parallelism.
//
// Parallelism cannot change any number: each trial derives all of its
// randomness from its cell's seed and its trial index, and each cell's
// trials accumulate in trial order, so the output is bit-identical to a
// sequential sweep. The returned error is the first failure in (cell,
// trial) order, a cell's validation failure counting as failing before
// its first trial: a failure stops every later job from starting, and
// every earlier job still runs.
func runGrid(cells []*gridCell) error {
	type job struct{ cell, trial int }
	var (
		scns    []Scenario // validated scenarios of the cells before the first invalid one
		jobs    []job
		invalid error
	)
	for i, c := range cells {
		s := c.scn.withDefaults()
		if err := s.validate(); err != nil {
			invalid = c.wrap(err)
			break
		}
		scns = append(scns, s)
		for t := range s.Trials {
			jobs = append(jobs, job{i, t})
		}
	}

	results := make([]*Metrics, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64      // next unclaimed job
	var firstFail atomic.Int64 // lowest failed job index
	firstFail.Store(int64(len(jobs)))
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := next.Add(1) - 1
				// Jobs are claimed in ascending order, so once one lies
				// past a failure every later one does too.
				if j >= int64(len(jobs)) || j > firstFail.Load() {
					return
				}
				jb := jobs[j]
				results[j], errs[j] = scns[jb.cell].runTrial(jb.trial)
				if errs[j] != nil {
					for f := firstFail.Load(); j < f; f = firstFail.Load() {
						if firstFail.CompareAndSwap(f, j) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	j := 0
	for i, s := range scns {
		var acc Metrics
		for t := range s.Trials {
			if errs[j] != nil {
				return cells[i].wrap(fmt.Errorf("experiment: trial %d: %w", t, errs[j]))
			}
			accumulate(&acc, results[j], t == 0)
			j++
		}
		scale := 1 / float64(s.Trials)
		acc.MSEBefore *= scale
		acc.MSEAfter *= scale
		acc.MSEStar *= scale
		acc.MSEDetect *= scale
		acc.MSEGenuine *= scale
		acc.FGBefore *= scale
		acc.FGAfter *= scale
		acc.FGStar *= scale
		acc.FGDetect *= scale
		acc.MSEMalNK *= scale
		acc.MSEMalPK *= scale
		acc.MSEKMeans *= scale
		acc.MSEKM *= scale
		cells[i].m = &acc
	}
	return invalid
}
