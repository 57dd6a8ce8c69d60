// Package priority assigns static priorities to subjobs. The analyses
// accept arbitrary assignments (Section 3.2); the paper's evaluation uses
// the relative-deadline-monotonic rule of Equation (24), implemented here
// along with the classic global alternatives.
package priority

import (
	"cmp"
	"slices"

	"rta/internal/model"
)

// RelativeDeadlineMonotonic applies Equation (24): each subjob receives
// the sub-deadline
//
//	D_{k,j} = tau_{k,j} / sum_i tau_{k,i} * D_k
//
// and on every processor the subjobs are ranked by sub-deadline, smallest
// first (rank = priority value; smaller is higher priority). Ties rank
// deterministically by (job, hop). The whole reassignment reads one
// topology index, taken before the first priority is rewritten, so it
// costs at most one index build however many processors it ranks.
func RelativeDeadlineMonotonic(sys *model.System) {
	byKey(sys, func(ref model.SubjobRef) float64 {
		job := &sys.Jobs[ref.Job]
		var total model.Ticks
		for _, sj := range job.Subjobs {
			total += sj.Exec
		}
		return float64(job.Subjobs[ref.Hop].Exec) / float64(total) * float64(job.Deadline)
	})
}

// DeadlineMonotonic ranks subjobs on each processor by their job's
// end-to-end deadline (smaller deadline = higher priority).
func DeadlineMonotonic(sys *model.System) {
	byKey(sys, func(ref model.SubjobRef) float64 {
		return float64(sys.Jobs[ref.Job].Deadline)
	})
}

// RateMonotonic ranks subjobs on each processor by the given per-job
// periods (smaller period = higher priority). Periods are supplied
// separately because the trace-based model does not assume periodicity.
func RateMonotonic(sys *model.System, periods []model.Ticks) {
	byKey(sys, func(ref model.SubjobRef) float64 {
		return float64(periods[ref.Job])
	})
}

// byKey ranks the subjobs of every processor by (key, job, hop), smallest
// first. Per-processor membership does not depend on priorities, so the
// topology taken before the first write stays a valid membership index
// while the priorities are rewritten; its shared slices are copied, never
// sorted in place. key is evaluated once per subjob.
func byKey(sys *model.System, key func(model.SubjobRef) float64) {
	type entry struct {
		ref model.SubjobRef
		key float64
	}
	topo := sys.Topology()
	var entries []entry
	for p := range sys.Procs {
		entries = entries[:0]
		for _, ref := range topo.OnProc(p) {
			entries = append(entries, entry{ref, key(ref)})
		}
		slices.SortFunc(entries, func(a, b entry) int {
			if c := cmp.Compare(a.key, b.key); c != 0 {
				return c
			}
			if c := cmp.Compare(a.ref.Job, b.ref.Job); c != 0 {
				return c
			}
			return cmp.Compare(a.ref.Hop, b.ref.Hop)
		})
		for rank, e := range entries {
			sys.Subjob(e.ref).Priority = rank
		}
	}
}
