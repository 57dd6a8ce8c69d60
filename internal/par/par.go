// Package par provides the dependency-driven worker pool shared by the
// parallel analysis engines.
package par

import (
	"context"
	"fmt"
	"sync"
)

// Run executes f(id) once for every node 0..n-1 of a dependency DAG on up
// to workers goroutines: node id becomes ready the moment every node in
// deps(id) has completed, so independent nodes never wait for unrelated
// stragglers the way a level barrier makes them (the subjobs of a
// lightly-loaded processor flow through while a heavily-loaded one still
// grinds). deps and dependents describe the same edge set from both ends
// (dependents(id) lists the nodes that consume id's outputs); nil means no
// edges. Run returns after every started call has finished.
//
// Ready nodes are dispatched lowest-id first, making the serial
// (workers <= 1) sweep a deterministic topological order; parallel
// schedules vary, but callers obeying the correctness contract below get
// identical results for every worker count.
//
// Fault containment at the single end barrier:
//
//   - Cancellation: ctx (nil means context.Background) is polled before
//     each node starts. Once ctx is done no new node starts, in-flight
//     nodes drain, and Run returns ctx.Err(). Nodes that already ran are
//     left fully published; the caller decides how to surface the partial
//     state.
//   - Panics: a panic in f stops the pool the same way, and after the
//     drain the first recovered panic value is re-raised on the calling
//     goroutine, so engine-level recover/Boundary handling sees it exactly
//     as in the serial path.
//
// Both stop paths use plain polling (no channel selects), so a
// deterministic fake context can observe exactly how many nodes ran.
//
// A dependency cycle leaves nodes that can never become ready; Run
// detects the starvation (nothing ready, nothing in flight, nodes
// remaining) and returns an error naming the unreachable count. The
// engines reject cyclic systems before calling Run, so hitting this is a
// caller bug, not an input condition.
//
// Correctness contract for callers: each f(id) must write only state owned
// by id (plus state read exclusively by its dependents) and read only data
// finalized by its dependencies — then the schedule is unobservable and
// the results are identical for every worker count.
func Run(ctx context.Context, n int, deps, dependents func(id int) []int, workers int, f func(id int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n == 0 {
		return ctx.Err()
	}
	indeg := make([]int, n)
	var ready minHeap
	for id := 0; id < n; id++ {
		if deps != nil {
			indeg[id] = len(deps(id))
		}
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	ready.init()

	if workers <= 1 || n == 1 {
		done := 0
		for len(ready) > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			id := ready.pop()
			f(id)
			done++
			if dependents == nil {
				continue
			}
			for _, d := range dependents(id) {
				if indeg[d]--; indeg[d] == 0 {
					ready.push(d)
				}
			}
		}
		if done < n {
			return fmt.Errorf("par: %d of %d tasks unreachable (dependency cycle)", n-done, n)
		}
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		remaining = n
		inflight  = 0
		stop      bool
		cycleErr  error
		panicked  any
		havePanic bool
		wg        sync.WaitGroup
	)
	runOne := func(id int) (rec any) {
		defer func() { rec = recover() }()
		f(id)
		return nil
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for {
				for !stop && len(ready) == 0 && remaining > 0 {
					if inflight == 0 {
						// Nothing ready, nothing running, nodes left: a
						// dependency cycle starved the queue.
						stop = true
						cycleErr = fmt.Errorf("par: %d of %d tasks unreachable (dependency cycle)", remaining, n)
						cond.Broadcast()
						return
					}
					cond.Wait()
				}
				if stop || remaining == 0 {
					return
				}
				if ctx.Err() != nil {
					stop = true
					cond.Broadcast()
					return
				}
				id := ready.pop()
				inflight++
				mu.Unlock()
				rec := runOne(id)
				mu.Lock()
				inflight--
				remaining--
				if rec != nil {
					if !havePanic {
						havePanic, panicked = true, rec
					}
					stop = true
				} else if !stop && dependents != nil {
					for _, d := range dependents(id) {
						if indeg[d]--; indeg[d] == 0 {
							ready.push(d)
						}
					}
				}
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()
	if havePanic {
		panic(panicked)
	}
	if cycleErr != nil {
		return cycleErr
	}
	return ctx.Err()
}

// RunSubset is Run restricted to an induced subgraph: f runs once for
// every id in ids (which must be duplicate-free), ordered by the edges of
// deps/dependents that have both endpoints in the subset. Edges leaving
// the subset are dropped — the caller asserts those inputs are already
// final (the warm-start engines re-run only a dirty dependents-closure,
// whose external dependencies are resident converged state). Among ready
// nodes, the one listed earliest in ids is dispatched first: sorted ids
// make the serial sweep visit the subset in the same relative order as a
// full Run, and callers that want some nodes as early as their
// dependencies allow list them first. Under the correctness contract the
// order changes only the schedule, never the results. The
// fault-containment contract (cancellation, panic re-raise, cycle
// starvation) carries over unchanged.
func RunSubset(ctx context.Context, ids []int, deps, dependents func(id int) []int, workers int, f func(id int)) error {
	n := len(ids)
	if n == 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		return ctx.Err()
	}
	local := make(map[int]int, n)
	for i, id := range ids {
		local[id] = i
	}
	filter := func(edges func(id int) []int) func(i int) []int {
		if edges == nil {
			return nil
		}
		filtered := make([][]int, n)
		for i, id := range ids {
			for _, e := range edges(id) {
				if j, ok := local[e]; ok {
					filtered[i] = append(filtered[i], j)
				}
			}
		}
		return func(i int) []int { return filtered[i] }
	}
	return Run(ctx, n, filter(deps), filter(dependents), workers, func(i int) { f(ids[i]) })
}

// minHeap is a binary min-heap of node ids: the pool dispatches the
// lowest ready id first, which makes the serial sweep deterministic and
// keeps parallel schedules close to the (job, hop) numbering.
type minHeap []int

func (h minHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *minHeap) push(v int) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *minHeap) pop() int {
	old := *h
	v := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.down(0)
	return v
}

func (h minHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
