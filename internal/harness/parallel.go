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
// only, never determinism. Each worker owns a cellArena of reusable
// harness scratch (stats accumulators, placement buffers), so steady-state
// cells stop re-allocating measurement-side state; arenas never influence
// results, only allocation counts.
func RunGrid(points []GridPoint, jobs int) []CellResult {
	out := make([]CellResult, len(points))
	arenas := make([]cellArena, poolWidth(len(points), jobs))
	parallelForWorkers(len(points), jobs, func(w, i int) {
		out[i] = runCellArena(points[i].Spec, points[i].Victim, &arenas[w])
	})
	return out
}

// poolWidth resolves the effective worker count parallelForWorkers will
// use for n items and a requested jobs value.
func poolWidth(n, jobs int) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// parallelFor runs f(0..n-1) across up to jobs goroutines.
func parallelFor(n, jobs int, f func(int)) {
	parallelForWorkers(n, jobs, func(_, i int) { f(i) })
}

// parallelForWorkers is parallelFor with the worker index exposed:
// f(w, i) runs item i on worker w, where w < poolWidth(n, jobs). Items
// are handed out dynamically, so w carries no meaning beyond "at most
// one f call with this w runs at a time" — exactly the property
// per-worker arenas need.
//
// A panic in f does not kill the process from a worker goroutine: the
// item's panic is recovered, no further items start, the running ones
// finish, and the lowest panicking item is re-raised on the calling
// goroutine as an itemPanic. Items start in index order, so that item
// is the same for any jobs value.
func parallelForWorkers(n, jobs int, f func(worker, i int)) {
	jobs = poolWidth(n, jobs)
	var (
		next    atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex
		failure *itemPanic
	)
	run := func(w, i int) {
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
		f(w, i)
	}
	work := func(w int) {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			run(w, i)
		}
	}
	if jobs <= 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(jobs)
		for w := 0; w < jobs; w++ {
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
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
