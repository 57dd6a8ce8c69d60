package model_test

// Equivalence tests for the cached topology index: every accessor must
// agree with a brute-force recomputation from the raw job table, on
// random systems and across in-place mutations (the index is keyed by a
// fingerprint and must rebuild transparently).

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"rta/internal/benchsys"
	"rta/internal/model"
	"rta/internal/par"
	"rta/internal/randsys"
)

// bruteOnProc recomputes the per-processor subjob list in (job, hop)
// order.
func bruteOnProc(sys *model.System, p int) []model.SubjobRef {
	var out []model.SubjobRef
	for k := range sys.Jobs {
		for j := range sys.Jobs[k].Subjobs {
			if sys.Jobs[k].Subjobs[j].Proc == p {
				out = append(out, model.SubjobRef{Job: k, Hop: j})
			}
		}
	}
	return out
}

// bruteByPriority recomputes the priority order with the deterministic
// (priority, job, hop) tie-break used by HigherPriority.
func bruteByPriority(sys *model.System, p int) []model.SubjobRef {
	out := bruteOnProc(sys, p)
	sort.SliceStable(out, func(a, b int) bool {
		pa, pb := sys.Subjob(out[a]).Priority, sys.Subjob(out[b]).Priority
		if pa != pb {
			return pa < pb
		}
		if out[a].Job != out[b].Job {
			return out[a].Job < out[b].Job
		}
		return out[a].Hop < out[b].Hop
	})
	return out
}

// bruteNeighbors recomputes the higher/lower split, the Equation (15)
// blocking term and the priority-ceiling blocking of subjob r.
func bruteNeighbors(sys *model.System, r model.SubjobRef) (hi, lo []model.SubjobRef, blocking, pcp model.Ticks) {
	self := sys.Subjob(r)
	for _, o := range bruteOnProc(sys, self.Proc) {
		if o == r {
			continue
		}
		if sys.HigherPriority(o, r) {
			hi = append(hi, o)
			continue
		}
		lo = append(lo, o)
		osj := sys.Subjob(o)
		if osj.Exec > blocking {
			blocking = osj.Exec
		}
		for _, cs := range osj.CS {
			if c, ok := bruteCeiling(sys, cs.Resource); ok && c <= self.Priority && cs.Duration > pcp {
				pcp = cs.Duration
			}
		}
	}
	return hi, lo, blocking, pcp
}

func bruteCeiling(sys *model.System, resource int) (int, bool) {
	best, ok := 0, false
	for k := range sys.Jobs {
		for _, sj := range sys.Jobs[k].Subjobs {
			for _, cs := range sj.CS {
				if cs.Resource == resource && (!ok || sj.Priority < best) {
					best, ok = sj.Priority, true
				}
			}
		}
	}
	return best, ok
}

func allRefs(sys *model.System) []model.SubjobRef {
	var out []model.SubjobRef
	for k := range sys.Jobs {
		for j := range sys.Jobs[k].Subjobs {
			out = append(out, model.SubjobRef{Job: k, Hop: j})
		}
	}
	return out
}

func sameRefs(a, b []model.SubjobRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedRefs returns a (job, hop)-sorted copy, for set comparisons.
func sortedRefs(rs []model.SubjobRef) []model.SubjobRef {
	out := slices.Clone(rs)
	slices.SortFunc(out, func(a, b model.SubjobRef) int {
		if a.Job != b.Job {
			return a.Job - b.Job
		}
		return a.Hop - b.Hop
	})
	return out
}

// readsHigherService reports whether the discipline of processor p takes
// its interference from the strictly higher-priority subjobs' service
// bounds (the static-priority disciplines).
func readsHigherService(sys *model.System, p int) bool {
	s := sys.Procs[p].Sched
	return s == model.SPP || s == model.SPNP
}

func checkAgainstBrute(t *testing.T, sys *model.System, label string) {
	t.Helper()
	topo := sys.Topology()
	for p := range sys.Procs {
		if got, want := topo.OnProc(p), bruteOnProc(sys, p); !sameRefs(got, want) {
			t.Fatalf("%s: OnProc(%d) = %v, want %v", label, p, got, want)
		}
		if got, want := topo.ByPriority(p), bruteByPriority(sys, p); !sameRefs(got, want) {
			t.Fatalf("%s: ByPriority(%d) = %v, want %v", label, p, got, want)
		}
		// The exported accessors must return equal (copied) slices.
		if got := sys.OnProc(p); !sameRefs(got, topo.OnProc(p)) {
			t.Fatalf("%s: System.OnProc(%d) disagrees with index", label, p)
		}
		if got := sys.ByPriority(p); !sameRefs(got, topo.ByPriority(p)) {
			t.Fatalf("%s: System.ByPriority(%d) disagrees with index", label, p)
		}
	}
	for k := range sys.Jobs {
		for j := range sys.Jobs[k].Subjobs {
			r := model.SubjobRef{Job: k, Hop: j}
			hi, lo, blocking, pcp := bruteNeighbors(sys, r)
			if got := sortedRefs(topo.Higher(r)); !sameRefs(got, hi) {
				t.Fatalf("%s: Higher(%v) = %v, want the set %v", label, r, topo.Higher(r), hi)
			}
			var readers []model.SubjobRef
			for _, id := range topo.ServiceReaders(topo.ID(r)) {
				readers = append(readers, topo.Subjobs()[id])
			}
			if !readsHigherService(sys, sys.Subjob(r).Proc) {
				lo = nil
			}
			if got := sortedRefs(readers); !sameRefs(got, lo) {
				t.Fatalf("%s: ServiceReaders(%v) = %v, want the set %v", label, r, readers, lo)
			}
			if got := topo.Blocking(r); got != blocking {
				t.Fatalf("%s: Blocking(%v) = %d, want %d", label, r, got, blocking)
			}
			if got := sys.Blocking(r); got != blocking {
				t.Fatalf("%s: System.Blocking(%v) = %d, want %d", label, r, got, blocking)
			}
			if got := topo.PCPBlocking(r); got != pcp {
				t.Fatalf("%s: PCPBlocking(%v) = %d, want %d", label, r, got, pcp)
			}
			for _, cs := range sys.Subjob(r).CS {
				wc, wok := bruteCeiling(sys, cs.Resource)
				gc, gok := sys.Ceiling(cs.Resource)
				if gc != wc || gok != wok {
					t.Fatalf("%s: Ceiling(%d) = (%d,%v), want (%d,%v)", label, cs.Resource, gc, gok, wc, wok)
				}
			}
		}
	}
}

// drawShape draws a chain system on even trials and a fork-join one on
// odd trials, over every registered discipline (SPP, SPNP, FCFS, TDMA).
// The default config draws 4 priority levels, so ties are common.
func drawShape(r *rand.Rand, trial int, cfg randsys.Config) *model.System {
	cfg.Schedulers = randsys.MixedSchedulers()
	if trial%2 == 1 {
		return randsys.ForkJoin(r, cfg)
	}
	return randsys.New(r, cfg)
}

// TestTopologyMatchesBruteForce: the index agrees with the brute-force
// scans on random chain and fork-join systems of every scheduler mix,
// with and without shared resources.
func TestTopologyMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	cfg := randsys.Default
	for trial := 0; trial < 200; trial++ {
		cfg.Resources = trial % 3 // 0 disables critical sections
		checkAgainstBrute(t, drawShape(r, trial, cfg), "fresh")
	}
}

// TestTopologyInvalidatesOnMutation: in-place edits of the
// topology-relevant fields (priority, processor, execution time,
// scheduler) are picked up by the next query without any explicit
// invalidation call.
func TestTopologyInvalidatesOnMutation(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cfg := randsys.Default
	cfg.Resources = 2
	scheds := model.RegisteredSchedulers()
	for trial := 0; trial < 100; trial++ {
		sys := drawShape(r, trial, cfg)
		checkAgainstBrute(t, sys, "pre-mutation")
		refs := allRefs(sys)
		for step := 0; step < 4; step++ {
			ref := refs[r.Intn(len(refs))]
			sj := sys.Subjob(ref)
			switch r.Intn(4) {
			case 0:
				sj.Priority = r.Intn(6)
			case 1:
				sj.Proc = r.Intn(len(sys.Procs))
			case 2:
				sj.Exec += model.Ticks(1 + r.Intn(5))
			case 3:
				sys.Procs[r.Intn(len(sys.Procs))].Sched = scheds[r.Intn(len(scheds))]
			}
			checkAgainstBrute(t, sys, "post-mutation")
		}
	}
}

// TestTopologyCachedPointer: without mutation, repeated queries return the
// identical index (no rebuild); after a mutation they do not.
func TestTopologyCachedPointer(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	sys := randsys.New(r, randsys.Default)
	a, b := sys.Topology(), sys.Topology()
	if a != b {
		t.Fatal("unchanged system rebuilt its topology index")
	}
	sys.Subjob(allRefs(sys)[0]).Exec++
	if c := sys.Topology(); c == a {
		t.Fatal("mutated system returned the stale topology index")
	}
}

// bruteDeps recomputes the full (unreduced) analysis dependency edges of
// subjob id: its precedence predecessors, plus per-scheduler interference
// inputs (every strictly higher-priority subjob's service bounds on
// SPP/SPNP, every co-located subjob's predecessors' departures on FCFS,
// nothing on TDMA).
func bruteDeps(sys *model.System, topo *model.Topology, id int) []int {
	r := topo.Subjobs()[id]
	set := map[int]bool{}
	var out []int
	add := func(d int) {
		if !set[d] {
			set[d] = true
			out = append(out, d)
		}
	}
	preds := func(o model.SubjobRef) []int {
		var ps []int
		base := topo.ID(o) - o.Hop
		if job := &sys.Jobs[o.Job]; len(job.Precedence) > 0 {
			for _, p := range job.Precedence[o.Hop] {
				ps = append(ps, base+p)
			}
		} else if o.Hop > 0 {
			ps = append(ps, base+o.Hop-1)
		}
		return ps
	}
	for _, d := range preds(r) {
		add(d)
	}
	proc := sys.Subjob(r).Proc
	switch sys.Procs[proc].Sched {
	case model.SPP, model.SPNP:
		for _, o := range bruteOnProc(sys, proc) {
			if o != r && sys.HigherPriority(o, r) {
				add(topo.ID(o))
			}
		}
	case model.FCFS:
		for _, o := range bruteOnProc(sys, proc) {
			for _, d := range preds(o) {
				add(d)
			}
		}
	}
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reach returns, per node, the set of nodes reachable from it over one
// or more edges.
func reach(n int, edges func(id int) []int) [][]bool {
	out := make([][]bool, n)
	for src := 0; src < n; src++ {
		seen := make([]bool, n)
		stack := slices.Clone(edges(src))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !seen[v] {
				seen[v] = true
				stack = append(stack, edges(v)...)
			}
		}
		out[src] = seen
	}
	return out
}

// bruteLevels is Kahn's longest-path level partition over the given
// edges, ids ascending within a level.
func bruteLevels(n int, deps, dependents func(id int) []int) ([][]int, bool) {
	indeg := make([]int, n)
	level := make([]int, n)
	var queue []int
	for id := 0; id < n; id++ {
		if indeg[id] = len(deps(id)); indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	var levels [][]int
	for qi := 0; qi < len(queue); qi++ {
		id := queue[qi]
		for _, d := range deps(id) {
			level[id] = max(level[id], level[d]+1)
		}
		for len(levels) <= level[id] {
			levels = append(levels, nil)
		}
		levels[level[id]] = append(levels[level[id]], id)
		for _, o := range dependents(id) {
			if indeg[o]--; indeg[o] == 0 {
				queue = append(queue, o)
			}
		}
	}
	for _, l := range levels {
		slices.Sort(l)
	}
	return levels, len(queue) == n
}

// serialOrder records par's serial (one-worker) visit order over the
// given edges: over every node when ids is nil, else over the induced
// subgraph of ids.
func serialOrder(n int, ids []int, deps, dependents func(id int) []int) ([]int, bool) {
	var order []int
	visit := func(id int) { order = append(order, id) }
	var err error
	if ids == nil {
		err = par.Run(nil, n, deps, dependents, 1, visit)
	} else {
		err = par.RunSubset(nil, ids, deps, dependents, 1, visit)
	}
	return order, err == nil
}

// TestTopologyDependencyGraph: Deps is a transitive reduction of the
// brute-force edge definition — a subset of the full edges with the same
// reachability — Dependents is its exact transpose (rows ascending), the
// level partition equals the full graph's, and par's serial visit order
// over the reduced edges equals its order over the full edges, both over
// every subjob and over a dependents-closed cone listed in random order
// (the warm sessions' sweep). Chain and fork-join shapes, every
// discipline, with and without physical loops.
func TestTopologyDependencyGraph(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	cfg := randsys.Default
	for trial := 0; trial < 200; trial++ {
		cfg.Loops = trial%4 >= 2
		cfg.Resources = trial % 3
		sys := drawShape(r, trial, cfg)
		topo := sys.Topology()
		n := len(topo.Subjobs())
		full := make([][]int, n)
		fullRev := make([][]int, n)
		rev := make([][]int, n)
		for id := 0; id < n; id++ {
			full[id] = bruteDeps(sys, topo, id)
			for _, d := range full[id] {
				fullRev[d] = append(fullRev[d], id)
			}
			for _, d := range topo.Deps(id) {
				if !slices.Contains(full[id], d) {
					t.Fatalf("trial %d: Deps(%d) = %v has %d, not in the full edges %v", trial, id, topo.Deps(id), d, full[id])
				}
				rev[d] = append(rev[d], id)
			}
		}
		for id := 0; id < n; id++ {
			if got := topo.Dependents(id); !sameInts(got, rev[id]) {
				t.Fatalf("trial %d: Dependents(%d) = %v, want %v", trial, id, got, rev[id])
			}
		}
		fullDeps := func(id int) []int { return full[id] }
		fullDependents := func(id int) []int { return fullRev[id] }
		gotReach, wantReach := reach(n, topo.Deps), reach(n, fullDeps)
		for id := 0; id < n; id++ {
			if !slices.Equal(gotReach[id], wantReach[id]) {
				t.Fatalf("trial %d: subjob %d reaches %v over Deps, %v over the full edges", trial, id, gotReach[id], wantReach[id])
			}
		}
		levels, acyclic := topo.Levels()
		wantLevels, wantAcyclic := bruteLevels(n, fullDeps, fullDependents)
		if acyclic != wantAcyclic || len(levels) != len(wantLevels) {
			t.Fatalf("trial %d: Levels() = %v (acyclic %v), want %v (acyclic %v)", trial, levels, acyclic, wantLevels, wantAcyclic)
		}
		for l := range levels {
			if !sameInts(levels[l], wantLevels[l]) {
				t.Fatalf("trial %d: level %d = %v, want %v", trial, l, levels[l], wantLevels[l])
			}
		}
		got, gotOK := serialOrder(n, nil, topo.Deps, topo.Dependents)
		want, wantOK := serialOrder(n, nil, fullDeps, fullDependents)
		if !sameInts(got, want) || gotOK != wantOK {
			t.Fatalf("trial %d: serial order %v (ok %v) over Deps, %v (ok %v) over the full edges", trial, got, gotOK, want, wantOK)
		}
		// A cone: the dependents-closure of a few random seeds, listed in
		// random order.
		inCone := make([]bool, n)
		var cone []int
		for s := 0; s < 2 && n > 0; s++ {
			cone = append(cone, r.Intn(n))
		}
		for qi := 0; qi < len(cone); qi++ {
			if id := cone[qi]; !inCone[id] {
				inCone[id] = true
				cone = append(cone, fullRev[id]...)
			}
		}
		ids := make([]int, 0, len(cone))
		for id, in := range inCone {
			if in {
				ids = append(ids, id)
			}
		}
		r.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		got, gotOK = serialOrder(n, ids, topo.Deps, topo.Dependents)
		want, wantOK = serialOrder(n, ids, fullDeps, fullDependents)
		if !sameInts(got, want) || gotOK != wantOK {
			t.Fatalf("trial %d: cone %v: serial order %v (ok %v) over Deps, %v (ok %v) over the full edges", trial, ids, got, gotOK, want, wantOK)
		}
	}
}

// TestTopologyBuildAllocs bounds the cost of one index build of the
// 50x8 benchmark shop: the build is linear in subjobs + processors, so
// it stays far below the ~12,000 allocations and ~1.7 MB that per-subjob
// neighbor lists cost.
func TestTopologyBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation forces spurious heap allocations")
	}
	const (
		maxAllocs = 2000
		maxBytes  = 400 << 10
		builds    = 20
	)
	sys := benchsys.Large(benchsys.Jobs, benchsys.Hops, benchsys.Instances, model.SPNP)
	sj := sys.Subjob(model.SubjobRef{Job: 0, Hop: 0})
	sys.Topology()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		sj.Exec++ // a fresh fingerprint: every query rebuilds
		sys.Topology()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / builds
	bytes := (after.TotalAlloc - before.TotalAlloc) / builds
	t.Logf("one build: %d allocs, %d bytes", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("one topology build of benchsys.Large: %d allocs, %d bytes; want <= %d allocs, <= %d bytes",
			allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestTopologySharedSlicesSafe: the exported System accessors return
// copies, so callers may sort or mutate them without corrupting the
// cached index (priority synthesis does exactly that).
func TestTopologySharedSlicesSafe(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	sys := randsys.New(r, randsys.Default)
	for p := range sys.Procs {
		got := sys.OnProc(p)
		if len(got) < 2 {
			continue
		}
		want := append([]model.SubjobRef(nil), got...)
		got[0], got[len(got)-1] = got[len(got)-1], got[0] // caller scrambles its copy
		if !sameRefs(sys.OnProc(p), want) {
			t.Fatalf("OnProc(%d): cached index was corrupted by caller mutation", p)
		}
	}
}
