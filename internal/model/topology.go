package model

// The topology index caches every per-processor view the analyses need —
// subjob lists, priority orders, blocking terms, resource ceilings and the
// analysis dependency graph — so the engines stop re-scanning and
// re-sorting the job table on every query. The index is built lazily on
// first use and keyed by a fingerprint of the topology-relevant fields,
// so callers that mutate systems in place (priority synthesis,
// sensitivity analysis, random search) transparently get a fresh index on
// the next query with no invalidation calls at the mutation sites.
//
// Every admission decision builds an index, so the build is linear in
// subjobs + processors plus one sort per processor (FCFS demand edges and
// priority-ceiling blocking, which scan whole processors, excepted). The
// static-priority relation "reads the service bounds of every strictly
// higher-priority subjob" is stored once, as the priority order itself,
// instead of being expanded per subjob: the higher-priority set and its
// reverse are zero-copy prefix and suffix views of ByPriority, and the
// dependency graph keeps one edge per static-priority hop, to the
// immediate higher-priority neighbor. That neighbor depends on everyone
// above it in turn, so the reduced graph has exactly the reachability of
// the full one (see Deps). The adjacency lists live in flat arrays.

import (
	"cmp"
	"fmt"
	"slices"
)

// Topology is an immutable precomputed index over a System's scheduling
// topology. All returned slices and maps are shared and MUST NOT be
// mutated; use the System accessors (OnProc, ByPriority, ...) when a
// private copy is needed. A Topology snapshot stays internally consistent
// even if the System is mutated after it was taken; System.Topology
// detects the mutation and builds a fresh index on the next call.
type Topology struct {
	sig     uint64
	offsets []int       // subjob id of (k, 0) for each job k
	refs    []SubjobRef // all subjobs in (job, hop) order
	proc    []int       // proc[id] is subjob id's processor
	// Per processor, views into one flat array each: onProc in (job, hop)
	// order, byPrio from highest to lowest priority and prioIDs the same
	// subjobs as ids.
	onProc  [][]SubjobRef
	byPrio  [][]SubjobRef
	prioIDs [][]int
	// prioPos[id] is the position of subjob id in its processor's byPrio
	// list. Because HigherPriority is a strict total order and byPrio is
	// sorted by it, byPrio[p][:prioPos[id]] is exactly Higher(id) — the
	// property behind the engines' prefix-sum interference memoization.
	prioPos []int
	// onProcPos[id] is the position of subjob id in its processor's onProc
	// list ((job, hop) admission order). Slot-table disciplines (TDMA) key
	// their slot assignment off this position.
	onProcPos []int
	// prefixService[p] records the registry's HigherPriorityService
	// declaration for processor p's discipline.
	prefixService []bool
	blocking      []Ticks     // Equation (15), per subjob id
	pcpBlocking   []Ticks     // priority-ceiling blocking (resources.go), per subjob id
	ceilings      map[int]int // resource -> priority ceiling; nil without resources
	// Analysis dependency graph (see Deps): dependents holds the reverse
	// edges (who must be recomputed when a subjob's outputs change), each
	// row ascending. levels partitions the ids into dependency levels when
	// the graph is acyclic.
	deps       adjacency
	dependents adjacency
	levels     [][]int
	acyclic    bool
	// demandReaders, per subjob id, are the co-located subjobs (beyond id
	// itself) consuming id's arrival/demand curves, from the registry's
	// DemandDeps hook.
	demandReaders [][]int
	// Job-internal precedence graph in global-id space: jobPreds[id] are
	// the subjobs whose completions release id (the job's Precedence
	// lists, or [id-1] for the implicit chain), jobSuccs the reverse
	// edges. sources/sinks list each job's entry and exit hop indices;
	// hopOrder is a per-job topological order of its hops (identity for
	// chains) that the engines' longest-path recurrences sweep in.
	jobPreds [][]int
	jobSuccs [][]int
	sources  [][]int
	sinks    [][]int
	hopOrder [][]int
}

// adjacency is a compressed adjacency list: the edges of node id are
// flat[start[id]:start[id+1]].
type adjacency struct {
	start []int
	flat  []int
}

// row returns the edges of node id, capped so an append cannot spill
// into the next row.
func (a adjacency) row(id int) []int {
	lo, hi := a.start[id], a.start[id+1]
	return a.flat[lo:hi:hi]
}

// topoSig fingerprints the fields the index depends on: processor
// schedulers, per subjob its processor, priority, execution time and
// critical sections, and the job's precedence lists (the dependency
// graph and level partition derive from them; a nil Precedence and an
// explicit chain hash differently, which only costs a duplicate cache
// entry). Release traces, deadlines and synchronization policies do not
// affect the topology. FNV-1a over the raw values.
func (s *System) topoSig() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(s.Procs)))
	for i := range s.Procs {
		mix(uint64(s.Procs[i].Sched))
	}
	mix(uint64(len(s.Jobs)))
	for k := range s.Jobs {
		subjobs := s.Jobs[k].Subjobs
		mix(uint64(len(subjobs)))
		for j := range subjobs {
			sj := &subjobs[j]
			mix(uint64(sj.Proc))
			mix(uint64(sj.Priority))
			mix(uint64(sj.Exec))
			mix(uint64(len(sj.CS)))
			for _, cs := range sj.CS {
				mix(uint64(cs.Resource))
				mix(uint64(cs.Start))
				mix(uint64(cs.Duration))
			}
		}
		mix(uint64(len(s.Jobs[k].Precedence)))
		for _, preds := range s.Jobs[k].Precedence {
			mix(uint64(len(preds)))
			for _, p := range preds {
				mix(uint64(p))
			}
		}
	}
	return h
}

// topoRing keeps the most recently used topology indexes, newest first.
// A single cache slot thrashes under staged workloads — an admission
// session cycles a system between a handful of configurations (with and
// without the churned job), and every transition would evict the one
// index the next transition needs. Rings are immutable; an update
// publishes a fresh ring, so concurrent readers stay safe.
type topoRing struct {
	entries [4]*Topology
}

// with returns a ring with t at the front and r's other entries behind
// it, dropping the oldest past capacity. Works on a nil receiver.
func (r *topoRing) with(t *Topology) *topoRing {
	out := &topoRing{}
	out.entries[0] = t
	i := 1
	if r != nil {
		for _, e := range r.entries {
			if e == nil || e.sig == t.sig {
				continue
			}
			if i == len(out.entries) {
				break
			}
			out.entries[i] = e
			i++
		}
	}
	return out
}

// Topology returns the cached index, rebuilding it if the system's
// topology changed since it was last built. The check costs one linear
// fingerprint pass; the build is linear in subjobs and processors plus
// one sort per processor. Safe for concurrent use: concurrent callers may
// race to build or reorder the ring, but every returned index is valid
// for the fingerprinted state.
func (s *System) Topology() *Topology {
	sig := s.topoSig()
	ring := s.topo.Load()
	if ring != nil {
		for i, t := range ring.entries {
			if t != nil && t.sig == sig {
				if i > 0 {
					s.topo.Store(ring.with(t))
				}
				return t
			}
		}
	}
	t := buildTopology(s, sig)
	s.topo.Store(ring.with(t))
	return t
}

func buildTopology(s *System, sig uint64) *Topology {
	np := len(s.Procs)
	t := &Topology{
		sig:     sig,
		offsets: make([]int, len(s.Jobs)+1),
		onProc:  make([][]SubjobRef, np),
		byPrio:  make([][]SubjobRef, np),
		prioIDs: make([][]int, np),
	}
	n := 0
	for k := range s.Jobs {
		t.offsets[k] = n
		n += len(s.Jobs[k].Subjobs)
	}
	t.offsets[len(s.Jobs)] = n
	t.refs = make([]SubjobRef, 0, n)
	t.proc = make([]int, 0, n)
	procStart := make([]int, np+1)
	for k := range s.Jobs {
		for j := range s.Jobs[k].Subjobs {
			p := s.Jobs[k].Subjobs[j].Proc
			t.refs = append(t.refs, SubjobRef{k, j})
			t.proc = append(t.proc, p)
			procStart[p+1]++
		}
	}
	for p := 0; p < np; p++ {
		procStart[p+1] += procStart[p]
	}
	// Per-processor lists by counting sort: ids ascend, so each
	// processor's slice comes out in (job, hop) order.
	onProcFlat := make([]SubjobRef, n)
	t.onProcPos = make([]int, n)
	next := slices.Clone(procStart[:np])
	for id, r := range t.refs {
		p := t.proc[id]
		onProcFlat[next[p]] = r
		t.onProcPos[id] = next[p] - procStart[p]
		next[p]++
	}
	byPrioFlat := slices.Clone(onProcFlat)
	prioIDFlat := make([]int, n)
	t.prioPos = make([]int, n)
	for p := 0; p < np; p++ {
		lo, hi := procStart[p], procStart[p+1]
		t.onProc[p] = onProcFlat[lo:hi:hi]
		refs := byPrioFlat[lo:hi:hi]
		// (priority, job, hop): the strict total order of HigherPriority.
		slices.SortFunc(refs, func(a, b SubjobRef) int {
			if c := cmp.Compare(s.Subjob(a).Priority, s.Subjob(b).Priority); c != 0 {
				return c
			}
			if a.Job != b.Job {
				return a.Job - b.Job
			}
			return a.Hop - b.Hop
		})
		t.byPrio[p] = refs
		ids := prioIDFlat[lo:hi:hi]
		for i, r := range refs {
			id := t.ID(r)
			ids[i] = id
			t.prioPos[id] = i
		}
		t.prioIDs[p] = ids
	}
	infos := make([]SchedulerInfo, np)
	t.prefixService = make([]bool, np)
	for p := range s.Procs {
		// Unregistered schedulers (rejected by Validate) read a zero info
		// and contribute no policy edges, keeping the index total on
		// arbitrary systems.
		infos[p], _ = LookupScheduler(s.Procs[p].Sched)
		t.prefixService[p] = infos[p].HigherPriorityService
	}
	buildBlocking(s, t)
	buildPrecedence(s, t, n)
	buildDependencyGraph(s, t, infos)
	return t
}

// buildBlocking fills the resource ceilings and the per-subjob blocking
// terms. The Equation (15) term is the largest execution time among the
// strictly lower-priority subjobs — a suffix of the priority order — so a
// suffix maximum per processor computes it. The priority-ceiling term
// scans the suffix's critical sections and is skipped when no resources
// are declared.
func buildBlocking(s *System, t *Topology) {
	for _, r := range t.refs {
		sj := s.Subjob(r)
		for _, cs := range sj.CS {
			if t.ceilings == nil {
				t.ceilings = map[int]int{}
			}
			if c, ok := t.ceilings[cs.Resource]; !ok || sj.Priority < c {
				t.ceilings[cs.Resource] = sj.Priority
			}
		}
	}
	n := len(t.refs)
	t.blocking = make([]Ticks, n)
	t.pcpBlocking = make([]Ticks, n)
	for _, ids := range t.prioIDs {
		var suffix Ticks
		for i := len(ids) - 1; i >= 0; i-- {
			t.blocking[ids[i]] = suffix
			suffix = max(suffix, s.Subjob(t.refs[ids[i]]).Exec)
		}
		if t.ceilings == nil {
			continue
		}
		for i, id := range ids {
			prio := s.Subjob(t.refs[id]).Priority
			for _, o := range ids[i+1:] {
				for _, cs := range s.Subjob(t.refs[o]).CS {
					if t.ceilings[cs.Resource] <= prio && cs.Duration > t.pcpBlocking[id] {
						t.pcpBlocking[id] = cs.Duration
					}
				}
			}
		}
	}
}

// buildPrecedence compiles each job's precedence DAG (or the implicit
// chain) into global-id edge lists, source/sink hop sets and a per-job
// topological hop order. Chain jobs allocate nothing of their own: their
// one-element edge lists, identity hop orders and source/sink sets are
// all views of one shared identity array (ident[i] == i serves as both a
// global id and a hop index). Out-of-range, self-loop and duplicate
// entries are skipped so the index stays total on systems Validate would
// reject; on a cyclic precedence graph hopOrder covers only the acyclic
// prefix (such systems never reach the engines).
func buildPrecedence(s *System, t *Topology, n int) {
	t.jobPreds = make([][]int, n)
	t.jobSuccs = make([][]int, n)
	t.sources = make([][]int, len(s.Jobs))
	t.sinks = make([][]int, len(s.Jobs))
	t.hopOrder = make([][]int, len(s.Jobs))
	ident := make([]int, n)
	for i := range ident {
		ident[i] = i
	}
	for k := range s.Jobs {
		job := &s.Jobs[k]
		base := t.offsets[k]
		nh := len(job.Subjobs)
		if job.ChainLike() {
			for id := base + 1; id < base+nh; id++ {
				t.jobPreds[id] = ident[id-1 : id : id]
				t.jobSuccs[id-1] = ident[id : id+1 : id+1]
			}
			t.hopOrder[k] = ident[:nh:nh]
			if nh > 0 {
				t.sources[k] = ident[:1:1]
				t.sinks[k] = ident[nh-1 : nh : nh]
			}
			continue
		}
		indeg := make([]int, nh)
		for j := 0; j < nh && j < len(job.Precedence); j++ {
			for pi, p := range job.Precedence[j] {
				if p < 0 || p >= nh || p == j {
					continue
				}
				dup := false
				for _, q := range job.Precedence[j][:pi] {
					if q == p {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				t.jobPreds[base+j] = append(t.jobPreds[base+j], base+p)
				t.jobSuccs[base+p] = append(t.jobSuccs[base+p], base+j)
				indeg[j]++
			}
		}
		order := make([]int, 0, nh)
		for j, d := range indeg {
			if d == 0 {
				order = append(order, j)
				t.sources[k] = append(t.sources[k], j)
			}
		}
		for qi := 0; qi < len(order); qi++ {
			for _, sid := range t.jobSuccs[base+order[qi]] {
				j := sid - base
				if indeg[j]--; indeg[j] == 0 {
					order = append(order, j)
				}
			}
		}
		t.hopOrder[k] = order
		for j := 0; j < nh; j++ {
			if len(t.jobSuccs[base+j]) == 0 {
				t.sinks[k] = append(t.sinks[k], j)
			}
		}
	}
}

// buildDependencyGraph derives the analysis dependency edges: which
// subjobs' outputs each subjob reads, up to transitivity. Per subjob the
// edges are
//
//   - the precedence predecessors within the same job (their
//     latest/earliest departures join into this hop's arrival bounds;
//     for chain jobs this is the previous hop);
//   - on a HigherPriorityService processor (SPP/SPNP), the immediate
//     higher-priority neighbor: the subjob reads the service bounds of
//     the whole higher-priority prefix (the interference terms), and the
//     rest of the prefix are dependencies of that neighbor, transitively;
//   - the precedence predecessors of each of the scheduler's DemandDeps
//     (e.g. every co-located subjob on a FCFS processor, whose arrivals
//     form the total-workload function of Equation 21: the arrivals of
//     such a neighbor are a deterministic function of its predecessors'
//     departures, which is what the edge must wait for).
//
// The same graph drives Kahn scheduling and level partitioning in the
// acyclic engines, and the dependents-closures of the warm cones and of
// the iterative engine's divergence localization (via the reverse
// edges). The reverse demand map (demandReaders) is built in the same
// pass.
func buildDependencyGraph(s *System, t *Topology, infos []SchedulerInfo) {
	n := len(t.refs)
	t.deps = adjacency{start: make([]int, n+1), flat: make([]int, 0, 2*n)}
	t.demandReaders = make([][]int, n)
	// seen stamps the deps already added for the current id (dedup); the
	// reverse-edge and level passes below reuse it as scratch.
	seen := make([]int, n)
	for i := range seen {
		seen[i] = -1
	}
	add := func(id, dep int) {
		if seen[dep] != id {
			seen[dep] = id
			t.deps.flat = append(t.deps.flat, dep)
		}
	}
	for id, r := range t.refs {
		for _, pid := range t.jobPreds[id] {
			add(id, pid)
		}
		p := t.proc[id]
		if pos := t.prioPos[id]; infos[p].HigherPriorityService && pos > 0 {
			add(id, t.prioIDs[p][pos-1])
		}
		if infos[p].DemandDeps != nil {
			for _, o := range infos[p].DemandDeps(s, t, r) {
				oid := t.ID(o)
				for _, pid := range t.jobPreds[oid] {
					add(id, pid)
				}
				if oid != id {
					t.demandReaders[oid] = append(t.demandReaders[oid], id)
				}
			}
		}
		t.deps.start[id+1] = len(t.deps.flat)
	}
	// Reverse edges by counting sort: filling in ascending id keeps every
	// dependents row ascending.
	t.dependents = adjacency{start: make([]int, n+1), flat: make([]int, len(t.deps.flat))}
	for _, d := range t.deps.flat {
		t.dependents.start[d+1]++
	}
	for id := 0; id < n; id++ {
		t.dependents.start[id+1] += t.dependents.start[id]
	}
	next := seen
	copy(next, t.dependents.start[:n])
	for id := 0; id < n; id++ {
		for _, d := range t.deps.row(id) {
			t.dependents.flat[next[d]] = id
			next[d]++
		}
	}
	// Level partition: level(id) = 1 + max level of its deps, computed by
	// Kahn's algorithm — the longest path from a source, which the
	// reduced edges preserve (a dropped edge d -> id is shadowed by the
	// longer path d -> ... -> neighbor -> id). A non-empty remainder means
	// a dependency cycle (physical or logical loop); levels stays valid
	// for the leveled prefix (-1 marks the rest) and acyclic reports
	// false.
	level := make([]int, n)
	indeg := seen
	for id := range indeg {
		indeg[id] = t.deps.start[id+1] - t.deps.start[id]
		level[id] = -1
	}
	queue := make([]int, 0, n)
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	maxLevel := -1
	for qi := 0; qi < len(queue); qi++ {
		id := queue[qi]
		l := 0
		for _, d := range t.deps.row(id) {
			l = max(l, level[d]+1)
		}
		level[id] = l
		maxLevel = max(maxLevel, l)
		for _, dep := range t.dependents.row(id) {
			if indeg[dep]--; indeg[dep] == 0 {
				queue = append(queue, dep)
			}
		}
	}
	t.acyclic = len(queue) == n
	// Bucket by counting sort, filling in ascending id order so the
	// serial sweep order is deterministic and matches the (job, hop)
	// numbering within a level.
	levelStart := make([]int, maxLevel+2)
	for _, l := range level {
		if l >= 0 {
			levelStart[l+1]++
		}
	}
	for l := 0; l <= maxLevel; l++ {
		levelStart[l+1] += levelStart[l]
	}
	flat := queue // same length; its order is no longer needed
	t.levels = make([][]int, maxLevel+1)
	for l := range t.levels {
		t.levels[l] = flat[levelStart[l]:levelStart[l]:levelStart[l+1]]
	}
	for id, l := range level {
		if l >= 0 {
			t.levels[l] = append(t.levels[l], id)
		}
	}
}

// ID returns the dense index of subjob r: subjobs are numbered in
// (job, hop) order, so id(k, j) = offsets[k] + j.
func (t *Topology) ID(r SubjobRef) int { return t.offsets[r.Job] + r.Hop }

// Subjobs returns all subjobs in deterministic (job, hop) order, indexed
// by ID. Shared slice; do not mutate.
func (t *Topology) Subjobs() []SubjobRef { return t.refs }

// OnProc returns the subjobs on processor p in (job, hop) order. Shared
// slice; do not mutate.
func (t *Topology) OnProc(p int) []SubjobRef { return t.onProc[p] }

// ByPriority returns the subjobs on processor p from highest to lowest
// priority with the deterministic (job, hop) tie-break. Shared slice; do
// not mutate.
func (t *Topology) ByPriority(p int) []SubjobRef { return t.byPrio[p] }

// PrioPos returns r's position in ByPriority of its processor. Because
// HigherPriority is a strict total order with the (job, hop) tie-break and
// ByPriority is sorted by it, ByPriority(p)[:PrioPos(r)] holds exactly the
// strictly higher-priority subjobs of r (the view Higher returns).
func (t *Topology) PrioPos(r SubjobRef) int { return t.prioPos[t.ID(r)] }

// OnProcPos returns r's position in OnProc of its processor — the (job,
// hop) admission order that slot-table disciplines (TDMA) key their slot
// assignment off. O(1); replaces the linear scan callers used to do.
func (t *Topology) OnProcPos(r SubjobRef) int { return t.onProcPos[t.ID(r)] }

// Procs returns the number of processors the index covers.
func (t *Topology) Procs() int { return len(t.onProc) }

// Higher returns the strictly higher-priority subjobs on r's processor in
// priority order: the ByPriority prefix before r. Shared slice; do not
// mutate.
func (t *Topology) Higher(r SubjobRef) []SubjobRef {
	id := t.ID(r)
	pos := t.prioPos[id]
	return t.byPrio[t.proc[id]][:pos:pos]
}

// Blocking returns the cached Equation (15) blocking term of r.
func (t *Topology) Blocking(r SubjobRef) Ticks { return t.blocking[t.ID(r)] }

// PCPBlocking returns the cached priority-ceiling blocking term of r.
func (t *Topology) PCPBlocking(r SubjobRef) Ticks { return t.pcpBlocking[t.ID(r)] }

// Ceilings returns the resource-to-priority-ceiling map (nil when no
// resources are declared). Shared map; do not mutate.
func (t *Topology) Ceilings() map[int]int { return t.ceilings }

// Deps returns the analysis prerequisites of subjob id, up to
// transitivity: every subjob whose outputs (departure bounds or service
// bounds) feed id's computation is in Deps(id) or reachable from it
// through further Deps edges. On a static-priority processor only the
// immediate higher-priority neighbor is listed; the rest of the
// higher-priority prefix precedes it in turn. Reachability, and thus
// every dependents-closure, level and Kahn schedule, is that of the full
// edge set. See buildDependencyGraph for the edge definition. Shared
// slice; do not mutate.
func (t *Topology) Deps(id int) []int { return t.deps.row(id) }

// Dependents returns the reverse Deps edges of subjob id, in ascending
// id order. Their closure is the set of subjobs that must be recomputed
// when id's outputs change. Shared slice; do not mutate.
func (t *Topology) Dependents(id int) []int { return t.dependents.row(id) }

// ServiceReaders returns the co-located subjobs whose analysis consumes
// id's service bounds: on a processor whose discipline declares
// HigherPriorityService (SPP/SPNP) exactly the strictly lower-priority
// subjobs, as the ByPriority suffix after id (ids, in priority order);
// nil elsewhere. Shared slice; do not mutate.
func (t *Topology) ServiceReaders(id int) []int {
	p := t.proc[id]
	if !t.prefixService[p] {
		return nil
	}
	return t.prioIDs[p][t.prioPos[id]+1:]
}

// DemandReaders returns the co-located subjobs (other than id itself)
// whose analysis consumes id's arrival/demand curves (the registry's
// DemandDeps, reversed): under FCFS these are the subjobs sharing the
// processor. Shared slice; do not mutate.
func (t *Topology) DemandReaders(id int) []int { return t.demandReaders[id] }

// JobPreds returns the precedence predecessors of subjob id within its
// own job, as global ids: the hops whose completions (plus their
// PostDelay) join into id's release. Empty exactly when id is a source
// hop. For a chain job this is [id-1]. Shared slice; do not mutate.
func (t *Topology) JobPreds(id int) []int { return t.jobPreds[id] }

// JobSuccs returns the precedence successors of subjob id within its own
// job, as global ids: the hops id's completion helps release (the fork
// fan-out). Empty exactly when id is a sink hop. Shared slice; do not
// mutate.
func (t *Topology) JobSuccs(id int) []int { return t.jobSuccs[id] }

// Sources returns the hop indices of job k's source subjobs — the hops
// with no precedence predecessors, released directly by the job's
// release trace. [0] for a chain job. Shared slice; do not mutate.
func (t *Topology) Sources(k int) []int { return t.sources[k] }

// Sinks returns the hop indices of job k's sink subjobs — the hops with
// no precedence successors; the job instance completes when all of them
// have. [len(Subjobs)-1] for a chain job. Shared slice; do not mutate.
func (t *Topology) Sinks(k int) []int { return t.sinks[k] }

// HopOrder returns a topological order of job k's hop indices over its
// precedence DAG (the identity order for a chain job). Longest-path
// recurrences over the job's hops sweep in this order. Shared slice; do
// not mutate.
func (t *Topology) HopOrder(k int) []int { return t.hopOrder[k] }

// Levels partitions the subjob ids into dependency levels: every
// dependency of a subjob in level l lies in a level strictly before l, so
// the subjobs of one level touch disjoint state and can be evaluated
// concurrently once all earlier levels are done. Ids are ascending within
// each level. acyclic reports whether every subjob was leveled; when
// false (a physical or logical loop) the levels cover only the acyclic
// prefix and the worklist engines must be used instead. Shared slices; do
// not mutate.
func (t *Topology) Levels() (levels [][]int, acyclic bool) { return t.levels, t.acyclic }

// String summarizes the index for debugging.
func (t *Topology) String() string {
	return fmt.Sprintf("topology{%d subjobs, %d procs, sig=%x}", len(t.refs), len(t.onProc), t.sig)
}
