package analysis

// The converge of a Session. Each acyclic engine has one sweep over a
// resident and a set of subjob ids (state.sweep, sweepExact): a cold
// converge sweeps a fresh resident over every subjob, exactly as the cold
// entry points do, and a warm delta sweeps the resident fixed point over
// the dependents-closure of the staged changes' seeds.
//
// Why the delta is bit-identical to cold analysis: the dirty set is
// closed under Topology.Dependents, so every subjob OUTSIDE it has no
// (transitive) input that changed — its resident rows already equal what
// a cold run would compute. Every subjob INSIDE it is cleared and
// recomputed, in dependency order over the induced subgraph
// (par.RunSubset), from inputs that are either final resident rows or
// final recomputed rows — the same inputs the cold sweep would see — by
// the same per-subjob routine. The memoized cross-subjob intermediates
// regroup exact integer sums over unique canonical curves (see
// sched.Memo), so sharing a still-valid memo prefix across converges
// changes nothing either. Results are field-identical at every worker
// count for the same reason the cold engines' are: the sweep schedule is
// unobservable.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"rta/internal/curve"
	"rta/internal/fault"
	"rta/internal/model"
	"rta/internal/sched"
	"rta/internal/spp"
)

// fail drops the warm state after an engine error: the staged system is
// kept (Rollback still restores the committed base), but the next
// Converge runs cold.
func (s *Session) fail() { s.cur.warm = false }

// afterConverge re-anchors the delta bookkeeping on the state that just
// converged: subsequent staged changes diff against it, not against the
// last commit (mid-stage sequences like the Audsley trial loop converge
// several times per commit).
func (s *Session) afterConverge() {
	s.prev = s.cur
	s.prevMap = identityMap(len(s.cur.sys.Jobs))
	s.clearDelta()
}

// convergeLocked converges the working system: a delta over the resident
// fixed point while the session is warm and the engine unchanged, else a
// cold sweep of a fresh resident. verdict selects the verdict-only
// converge of Schedulable, whose delta may stop at the first proven
// deadline miss with errDeadlineMiss.
func (s *Session) convergeLocked(verdict bool) (res *Result, err error) {
	defer func() {
		if err != nil {
			s.fail()
		}
	}()
	defer fault.Boundary("analysis.Session", &err)
	if !s.cur.needs {
		return s.cur.res, nil
	}
	if len(s.cur.sys.Jobs) == 0 {
		// The empty job set of a fresh admission controller: vacuously
		// schedulable, nothing resident.
		s.cur.mode = modeEmpty
		s.cur.st, s.cur.ex, s.cur.exMemo = nil, nil, nil
		s.cur.res = &Result{Method: "Empty"}
		s.cur.topo = nil
		s.cur.needs = false
		s.cur.warm = false
		s.afterConverge()
		return s.cur.res, nil
	}
	sys := s.cur.sys
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	mode := modeApprox
	if sched.ExactAll(sys) && !sys.HasResources() {
		mode = modeExact
	}
	ctx := s.cfg.Opts.ctx()
	var (
		ids   []int // nil: every subjob
		miss  *earlyReject
		after func(model.SubjobRef)
	)
	delta := s.cur.warm && mode == s.cur.mode
	if delta {
		_, delta = s.cur.topo.Levels() // a staged cycle converges cold
	}
	if delta {
		var inDirty []bool
		ids, inDirty = s.prepareDelta()
		if verdict {
			miss = newEarlyReject(ctx, sys)
			ctx = miss.ctx
			defer miss.cancel()
			if mode == modeExact {
				ex := s.cur.ex
				after = func(r model.SubjobRef) { miss.exactHop(ex, r) }
			} else {
				st := s.cur.st
				miss.seedPaths(st, ids, inDirty)
				after = func(r model.SubjobRef) { miss.approxHop(st, r) }
			}
		}
	} else {
		// Cold: a fresh resident, swept over every subjob. A cyclic system
		// fails with ErrCyclic exactly as AnalyzeOpts does.
		s.stats.ColdConverges++
		s.cur.warm = false
		s.cur.st, s.cur.ex, s.cur.exMemo, s.cur.res = nil, nil, nil, nil
		s.cur.mode = mode
		s.cur.topo = sys.Topology()
		if _, acyclic := s.cur.topo.Levels(); !acyclic {
			return nil, ErrCyclic
		}
		if mode == modeExact {
			s.cur.ex, s.cur.exMemo = spp.NewResult(sys), sched.NewMemo(s.cur.topo)
		} else {
			s.cur.st = newState(sys)
		}
	}
	if mode == modeExact {
		res, err = sweepExact(ctx, sys, s.cur.exMemo, s.cur.ex, ids, s.cfg.Opts, after)
	} else {
		res, err = s.cur.st.sweep(ctx, ids, s.cfg.Opts, after)
	}
	if miss != nil && miss.proven.Load() {
		s.cur.res = nil
		return nil, errDeadlineMiss
	}
	s.cur.res = res // partial on a budget trip, nil on any other error
	if err != nil {
		return res, err
	}
	s.cur.needs = false
	s.cur.warm = true
	s.afterConverge()
	return res, nil
}

// prepareDelta turns the staged seeds into the dirty cone a delta
// converge sweeps — ids in dispatch order, plus a membership vector — and
// makes the resident rows the cone rewrites private to cur.
func (s *Session) prepareDelta() (ids []int, inDirty []bool) {
	sys, topo := s.cur.sys, s.cur.topo
	anchor := &s.prev

	// rev maps a current job index back to its anchor index (-1 for jobs
	// admitted since the anchor converged).
	rev := make([]int, len(sys.Jobs))
	for i := range rev {
		rev[i] = -1
	}
	for pk, ck := range s.prevMap {
		if ck >= 0 {
			rev[ck] = pk
		}
	}

	// Catch-all seeds the per-change rules cannot see locally: the cached
	// blocking terms (largest lower-priority execution / priority-ceiling
	// section on the processor) and, for position-dependent disciplines
	// (TDMA), the OnProc position — all functions of the whole processor
	// population, compared directly between the anchor index and the new
	// one. Surviving jobs keep their hop counts (Mutate enforces rigid
	// structure), so the per-hop comparison is total.
	for ck := range sys.Jobs {
		pk := rev[ck]
		if pk < 0 {
			continue // admitted this stage: every hop already seeded
		}
		for j := range sys.Jobs[ck].Subjobs {
			cr := model.SubjobRef{Job: ck, Hop: j}
			pr := model.SubjobRef{Job: pk, Hop: j}
			if topo.Blocking(cr) != anchor.topo.Blocking(pr) ||
				topo.PCPBlocking(cr) != anchor.topo.PCPBlocking(pr) {
				s.seed(topo.ID(cr))
				continue
			}
			info, _ := model.LookupScheduler(sys.Procs[sys.Subjob(cr).Proc].Sched)
			if info.PositionDependent && topo.OnProcPos(cr) != anchor.topo.OnProcPos(pr) {
				s.seed(topo.ID(cr))
			}
		}
	}

	// Dirty cone: the dependents-closure of the seeds.
	n := len(topo.Subjobs())
	inDirty = make([]bool, n)
	queue := make([]int, 0, len(s.seeds))
	for id := range s.seeds {
		if !inDirty[id] {
			inDirty[id] = true
			queue = append(queue, id)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		for _, d := range topo.Dependents(queue[qi]) {
			if !inDirty[d] {
				inDirty[d] = true
				queue = append(queue, d)
			}
		}
	}
	slices.Sort(queue)
	// Dispatch preference: the hops of jobs admitted this stage first, so
	// the sweep reaches the newcomer's own verdict as soon as its
	// dependencies allow (the schedule is unobservable in the results).
	// Non-nil even when empty: nil would mean every subjob.
	ids = make([]int, 0, len(queue))
	for _, admitted := range []bool{true, false} {
		for _, id := range queue {
			if (rev[topo.Subjobs()[id].Job] < 0) == admitted {
				ids = append(ids, id)
			}
		}
	}
	s.stats.DeltaConverges++
	s.stats.LastCone = len(ids)

	// Memo retention: a priority-prefix entry survives when every leading
	// member before it is the same subjob at the same position as in the
	// anchor and none of them is dirty (clean members have bit-identical
	// service curves by the closure invariant); the FCFS totals survive
	// when the whole processor population is unchanged and clean.
	keepPrefix := make([]int, topo.Procs())
	keepFCFS := make([]bool, topo.Procs())
	same := func(cr model.SubjobRef, prevRef model.SubjobRef) bool {
		pk := rev[cr.Job]
		return pk >= 0 && prevRef == model.SubjobRef{Job: pk, Hop: cr.Hop} && !inDirty[topo.ID(cr)]
	}
	for p := 0; p < topo.Procs(); p++ {
		curBP, prevBP := topo.ByPriority(p), anchor.topo.ByPriority(p)
		m := 0
		for m < len(curBP) && m < len(prevBP) && same(curBP[m], prevBP[m]) {
			m++
		}
		keepPrefix[p] = m
		curOP, prevOP := topo.OnProc(p), anchor.topo.OnProc(p)
		ok := len(curOP) == len(prevOP)
		for i := 0; ok && i < len(curOP); i++ {
			ok = same(curOP[i], prevOP[i])
		}
		keepFCFS[p] = ok
	}

	// Copy-on-write: previously returned Results alias the resident
	// arrays, so the outer spines and the rows of every affected job are
	// re-cloned before the sweep writes anything.
	affected := affectedJobs(topo, ids)
	if s.cur.mode == modeExact {
		ex := cloneExactOuter(s.cur.ex)
		for k := range affected {
			ex.Arrival[k] = append([][]model.Ticks(nil), ex.Arrival[k]...)
			ex.Departure[k] = append([][]model.Ticks(nil), ex.Departure[k]...)
			ex.Service[k] = append([]*curve.Curve(nil), ex.Service[k]...)
			ex.Backlog[k] = append([]int(nil), ex.Backlog[k]...)
		}
		s.cur.ex = ex
		s.cur.exMemo = anchor.exMemo.Extend(topo, keepPrefix, keepFCFS)
	} else {
		st := s.cur.st.sessionClone()
		st.sys, st.topo = sys, topo
		st.memo = anchor.st.memo.Extend(topo, keepPrefix, keepFCFS)
		for k := range affected {
			st.hops[k] = append([]Hop(nil), st.hops[k]...)
		}
		s.cur.st = st
	}
	return ids, inDirty
}

// affectedJobs returns the set of jobs owning a dirty subjob.
func affectedJobs(topo *model.Topology, ids []int) map[int]struct{} {
	out := make(map[int]struct{})
	for _, id := range ids {
		out[topo.Subjobs()[id].Job] = struct{}{}
	}
	return out
}

// Early reject. Schedulable only needs the verdict, and a miss can be
// proven long before the sweep ends: in dependency order every subjob's
// rows are final the moment they are computed, and the end-to-end bound
// of a DirectSync job can only grow past what its already-final hops
// show. Two rules, one per acyclic engine, for DirectSync jobs only:
//
//   - Approximate: WCRTSum[k] is the longest source->sink path sum of
//     Local[j] plus the PostDelay of every edge (state.result). The
//     partial sum acc[j] = max over preds (acc[p] + PostDelay[p]) +
//     Local[j], with resident Local for clean hops, is a path prefix;
//     every term is non-negative and every hop reaches a sink, so
//     WCRTSum[k] >= acc[j]. acc[j] > D_k, or an unbounded hop (which
//     makes WCRTSum[k] unbounded), proves the miss.
//   - Exact: an instance's arrival at a hop is the max over predecessors
//     of their departures plus a non-negative PostDelay, and it departs
//     no earlier than it arrives, so departures only grow along
//     precedence edges and the sink's response to instance i is at
//     least Departure[k][j][i] - Releases[i]. A finite value above D_k
//     proves the miss.
//
// Non-DirectSync jobs report the per-instance pipeline bound instead of
// the path sum and are never used to reject early; neither is a miss in
// a job outside the dirty cone. Those fall
// through to the full converge and Result.Schedulable, as do all
// accepted decisions, which run the whole cone exactly as Converge does.

// errDeadlineMiss stops a verdict-only converge at a proven miss.
var errDeadlineMiss = errors.New("analysis: deadline miss proven")

// earlyReject watches one verdict-only delta converge for a proven miss
// and cancels its sweep when it finds one.
type earlyReject struct {
	sys    *model.System
	ctx    context.Context
	cancel context.CancelFunc
	proven atomic.Bool
	// acc[id] is the approximate rule's longest-path prefix sum ending at
	// subjob id (curve.Inf when unbounded). Clean hops are filled before
	// the sweep; a dirty hop's slot is written by the worker that computed
	// it and read only by its job successors, after the dependency edge
	// fires.
	acc []model.Ticks
}

func newEarlyReject(parent context.Context, sys *model.System) *earlyReject {
	ctx, cancel := context.WithCancel(parent)
	return &earlyReject{sys: sys, ctx: ctx, cancel: cancel}
}

// prove records the miss and stops the sweep.
func (e *earlyReject) prove() {
	e.proven.Store(true)
	e.cancel()
}

// seedPaths fills acc for the clean hops of every DirectSync job that has
// a dirty hop. Clean hops only have clean job predecessors (the cone is
// closed under dependents), so their resident Local values are final.
func (e *earlyReject) seedPaths(st *state, ids []int, inDirty []bool) {
	topo := st.topo
	e.acc = make([]model.Ticks, len(topo.Subjobs()))
	for k := range affectedJobs(topo, ids) {
		if e.sys.Jobs[k].Sync != model.DirectSync {
			continue
		}
		for _, j := range topo.HopOrder(k) {
			if id := topo.ID(model.SubjobRef{Job: k, Hop: j}); !inDirty[id] {
				e.acc[id] = e.pathSum(st, k, j)
			}
		}
	}
}

// pathSum is the acc recurrence at hop j of job k, over its predecessors'
// acc slots.
func (e *earlyReject) pathSum(st *state, k, j int) model.Ticks {
	job := &e.sys.Jobs[k]
	hop := &st.hops[k][j]
	if hop.DepLate == nil || curve.IsInf(hop.Local) {
		return curve.Inf
	}
	var best model.Ticks
	var scratch [1]int
	for _, p := range job.HopPreds(j, &scratch) {
		a := e.acc[st.topo.ID(model.SubjobRef{Job: k, Hop: p})]
		if curve.IsInf(a) {
			return curve.Inf
		}
		if c := a + job.Subjobs[p].PostDelay; c > best {
			best = c
		}
	}
	return best + hop.Local
}

// approxHop applies the approximate rule to a just-computed subjob.
func (e *earlyReject) approxHop(st *state, r model.SubjobRef) {
	job := &e.sys.Jobs[r.Job]
	if job.Sync != model.DirectSync {
		return
	}
	a := e.pathSum(st, r.Job, r.Hop)
	e.acc[st.topo.ID(r)] = a
	if curve.IsInf(a) || a > job.Deadline {
		e.prove()
	}
}

// exactHop applies the exact rule to a just-computed subjob.
func (e *earlyReject) exactHop(ex *spp.Result, r model.SubjobRef) {
	job := &e.sys.Jobs[r.Job]
	if job.Sync != model.DirectSync {
		return
	}
	for i, dep := range ex.Departure[r.Job][r.Hop] {
		if !curve.IsInf(dep) && dep-job.Releases[i] > job.Deadline {
			e.prove()
			return
		}
	}
}
