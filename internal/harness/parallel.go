package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// GridPoint is one independent unit of a congestion-grid experiment: a
// fully-specified cell plus the victim measured in it. Every point owns
// its seed, builds its own network, and shares nothing with its
// neighbours, so points are embarrassingly parallel while each
// sim.Engine stays single-threaded and deterministic.
type GridPoint struct {
	Spec   CellSpec
	Victim Victim
}

// RunGrid measures every point across a pool of jobs workers (jobs <= 0
// means GOMAXPROCS) and returns results in point order. Because each
// point's seed is fixed up front and results are written by index, the
// output is identical for any worker count — jobs trades wall-clock time
// only, never determinism.
func RunGrid(points []GridPoint, jobs int) []CellResult {
	return parallelMap(jobs, points, func(p GridPoint) CellResult {
		return RunCell(p.Spec, p.Victim)
	})
}

// parallelFor runs f(0..n-1) across up to jobs goroutines (jobs <= 0
// means GOMAXPROCS).
//
// A panic in f does not kill the process from a worker goroutine: the
// item's panic is recovered, no further items start, the running ones
// finish, and the lowest panicking item is re-raised on the calling
// goroutine as an itemPanic. Items start in index order, so that item
// is the same for any jobs value.
func parallelFor(n, jobs int, f func(int)) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	var (
		next    atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex
		failure *itemPanic
	)
	run := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				stop.Store(true)
				mu.Lock()
				if failure == nil || i < failure.item {
					failure = &itemPanic{item: i, value: v}
				}
				mu.Unlock()
			}
		}()
		f(i)
	}
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			run(i)
		}
	}
	jobs = min(jobs, n)
	if jobs <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(jobs)
		for w := 0; w < jobs; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if failure != nil {
		panic(*failure)
	}
}

// itemPanic is a panic raised by item `item` of a parallel loop,
// re-raised on the loop's calling goroutine.
type itemPanic struct {
	item  int
	value any
}

func (p itemPanic) Error() string { return fmt.Sprintf("grid point %d: %v", p.item, p.value) }

// parallelMap maps f over items with up to jobs workers, preserving
// order. f must be independent per item (it is handed its own index's
// input and writes only its own output slot).
func parallelMap[T, R any](jobs int, items []T, f func(T) R) []R {
	out := make([]R, len(items))
	parallelFor(len(items), jobs, func(i int) {
		out[i] = f(items[i])
	})
	return out
}
