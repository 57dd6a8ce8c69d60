package sched

import (
	"sync"

	"rta/internal/curve"
	"rta/internal/model"
)

// Memo caches the cross-subjob intermediates of one analysis run that the
// per-subjob theorem transforms would otherwise recompute per subjob:
//
//   - Static priority (Theorems 5/6): the interference terms of a subjob
//     at priority position i are the service bounds of positions 0..i-1 —
//     an exact prefix of the processor's priority order, because
//     model.HigherPriority is a strict total order. The memo keeps one
//     prefix chain of residual availabilities t - sum per processor
//     (prefix i = prefix i-1 minus one curve), so a processor with P
//     subjobs builds P shared residuals instead of P k-way merges of up
//     to P-1 curves each — and the residual is exactly the form the
//     theorem transforms consume, so no further pass derives it.
//   - FCFS (Theorems 7-9): the Equation (21) total workloads and the
//     Theorem 7 utilization functions are identical for every subjob on
//     the processor; the memo computes each once.
//
// Sums are exact integer pointwise additions and canonical curve
// representations are unique, so every memoized quantity is bit-identical
// to the per-subjob recomputation it replaces — results do not depend on
// whether, or by whom, the memo was populated.
//
// A Memo is safe for concurrent use: entries are computed under sync.Once,
// so concurrent subjob evaluations share one computation and observe it
// with a happens-before edge. The accessor callbacks read only inputs that
// the dependency schedule has already finalized (position i's chain needs
// the services of positions < i, which every subjob that can request it
// depends on, transitively), so a Memo must only be used by engines that
// evaluate subjobs in dependency order with all inputs final — the
// iterative engine's provisional sweeps must pass Memo == nil.
//
// A Memo instance serves either the paired accessors (PrefixResiduals,
// approximate pipeline) or the single-curve one (PrefixResidual, exact
// SPP analysis), never both: they share the per-position storage.
type Memo struct {
	topo  *model.Topology
	procs []procMemo
}

// procMemo's entries are pointers so a warm-start Extend can share the
// still-valid prefix of one run's chain with the next run: a shared entry
// is filled at most once (sync.Once) with a value that is bit-identical no
// matter which run computes it, because both runs see the same member
// curves for the retained prefix.
type procMemo struct {
	prefix []*prefixSums
	fcfs   *fcfsTotals
}

// prefixSums holds the residual availabilities over the service bounds
// of the pos highest-priority subjobs of one processor (position 0 is
// the empty prefix, nil residuals) and the interference curves derived
// from them on demand.
type prefixSums struct {
	once   sync.Once
	lo, hi *curve.Residual
	// niOnce guards ni, the Theorem 5/6 bundle derived from (lo, hi) for
	// the approximate static-priority path.
	niOnce sync.Once
	ni     *curve.NPInterference
	// availOnce guards avail, the Equation (10) availability derived from
	// lo for the exact SPP path.
	availOnce sync.Once
	avail     *curve.Curve
}

// fcfsTotals holds the per-processor Equation (21) totals and Theorem 7
// utilization functions.
type fcfsTotals struct {
	once                             sync.Once
	totalLo, totalHi, utilLo, utilHi *curve.Curve
}

// NewMemo returns an empty memo for one analysis run over topo's system.
func NewMemo(topo *model.Topology) *Memo {
	m := &Memo{topo: topo, procs: make([]procMemo, topo.Procs())}
	for p := range m.procs {
		entries := make([]*prefixSums, len(topo.ByPriority(p))+1)
		for i := range entries {
			entries[i] = &prefixSums{}
		}
		m.procs[p].prefix = entries
		m.procs[p].fcfs = &fcfsTotals{}
	}
	return m
}

// Extend derives a memo for a perturbed topology from m, retaining the
// entries the perturbation cannot have changed — the invalidation hook of
// warm-start delta re-analysis (analysis.Session).
//
// keepPrefix[p] is the number of leading positions of topo.ByPriority(p)
// whose members are the same subjobs, in the same order, with unchanged
// service bounds as in m's topology; entries 0..keepPrefix[p] are shared
// (entry i depends only on members < i), positions beyond get fresh
// entries. keepFCFS[p] retains the Equation (21) totals when the
// processor's membership and every member's demand are unchanged.
//
// Sharing is sound even for entries that are still lazily unfilled: a
// shared entry's members have bit-identical curves in both runs, and
// canonical curve representations are unique, so whichever run fills it
// produces the same value. The new topology must have the same processor
// count as m's.
func (m *Memo) Extend(topo *model.Topology, keepPrefix []int, keepFCFS []bool) *Memo {
	out := &Memo{topo: topo, procs: make([]procMemo, topo.Procs())}
	for p := range out.procs {
		entries := make([]*prefixSums, len(topo.ByPriority(p))+1)
		old := m.procs[p].prefix
		for i := range entries {
			if i <= keepPrefix[p] && i < len(old) {
				entries[i] = old[i]
			} else {
				entries[i] = &prefixSums{}
			}
		}
		out.procs[p].prefix = entries
		if keepFCFS[p] {
			out.procs[p].fcfs = m.procs[p].fcfs
		} else {
			out.procs[p].fcfs = &fcfsTotals{}
		}
	}
	return out
}

// PrefixResiduals returns the residual availabilities t - sum over the
// (lower, upper) service bounds of the pos highest-priority subjobs on
// processor p, i.e. of ByPriority(p)[:pos]; (nil, nil) for pos == 0.
// service must return the final bounds of a subjob strictly
// higher-priority than the caller's — the dependency schedule guarantees
// they are computed. All returned residuals are shared and heap-backed;
// do not mutate.
func (m *Memo) PrefixResiduals(p, pos int, service func(o model.SubjobRef) (lo, hi *curve.Curve)) (resLo, resHi *curve.Residual) {
	e := m.procs[p].prefix[pos]
	e.once.Do(func() {
		if pos == 0 {
			return
		}
		plo, phi := m.PrefixResiduals(p, pos-1, service)
		slo, shi := service(m.topo.ByPriority(p)[pos-1])
		e.lo, e.hi = curve.SubResidual(plo, slo), curve.SubResidual(phi, shi)
	})
	return e.lo, e.hi
}

// NPInterference returns the Theorem 5/6 interference bundle of the pos
// highest-priority subjobs on processor p, derived once from the prefix
// residuals and shared by every subjob at that prefix position; see
// PrefixResiduals for the finality contract on service.
func (m *Memo) NPInterference(p, pos int, service func(o model.SubjobRef) (lo, hi *curve.Curve)) *curve.NPInterference {
	e := m.procs[p].prefix[pos]
	e.niOnce.Do(func() {
		resLo, resHi := m.PrefixResiduals(p, pos, service)
		e.ni = curve.NewNPInterference(resLo, resHi)
	})
	return e.ni
}

// PrefixResidual is PrefixResiduals for the exact SPP analysis, where
// each subjob has a single exact service function (Theorem 3) and the
// residual is Equation (10)'s availability. nil for pos == 0.
func (m *Memo) PrefixResidual(p, pos int, service func(o model.SubjobRef) *curve.Curve) *curve.Residual {
	e := m.procs[p].prefix[pos]
	e.once.Do(func() {
		if pos == 0 {
			return
		}
		prev := m.PrefixResidual(p, pos-1, service)
		e.lo = curve.SubResidual(prev, service(m.topo.ByPriority(p)[pos-1]))
	})
	return e.lo
}

// PrefixAvailability returns Equation (10)'s availability function over
// the pos highest-priority subjobs on processor p — what their exact
// service functions leave over — shared by every subjob at that
// position. The residual chain already maintains t - sum, so this only
// wraps it under the Curve invariant (which the exact-SPP theory
// guarantees the availability satisfies).
func (m *Memo) PrefixAvailability(p, pos int, service func(o model.SubjobRef) *curve.Curve) *curve.Curve {
	e := m.procs[p].prefix[pos]
	e.availOnce.Do(func() {
		e.avail = curve.AvailabilityFromResidual(m.PrefixResidual(p, pos, service))
	})
	return e.avail
}

// FCFSTotals returns the Equation (21) total workload bounds of processor
// p (sums of every co-located subjob's demand staircases) and the
// Theorem 7 utilization functions built from them. demand must return the
// final demand staircases of a co-located subjob — dependencies of every
// FCFS subjob on the processor, so final whenever one of them can ask.
// All returned curves are shared and heap-backed; do not mutate.
func (m *Memo) FCFSTotals(p int, demand func(o model.SubjobRef) (lo, hi *curve.Curve)) (totalLo, totalHi, utilLo, utilHi *curve.Curve) {
	e := m.procs[p].fcfs
	e.once.Do(func() {
		onp := m.topo.OnProc(p)
		los := make([]*curve.Curve, 0, len(onp))
		his := make([]*curve.Curve, 0, len(onp))
		for _, o := range onp {
			lo, hi := demand(o)
			los = append(los, lo)
			his = append(his, hi)
		}
		e.totalLo, e.totalHi = curve.Sum(los...), curve.Sum(his...)
		e.utilLo, e.utilHi = curve.Utilization(e.totalLo), curve.Utilization(e.totalHi)
	})
	return e.totalLo, e.totalHi, e.utilLo, e.utilHi
}
