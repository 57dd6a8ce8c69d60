// Package tdma adds time-division-multiple-access scheduling as a
// registered policy, and doubles as the worked example of the policy
// registry: everything TDMA-specific lives here — no engine package knows
// the discipline exists.
//
// A TDMA processor repeats a cycle of Cycle ticks starting at Offset.
// Within each cycle, the i-th subjob assigned to the processor (in the
// deterministic (job, hop) order of Topology.OnProc) owns the contiguous
// slot [Offset + i*Slot, Offset + i*Slot + Slot), shifted by whole cycles.
// A subjob executes only inside its own slot; work that does not fit
// resumes in the slot's next cycle. Because the slot assignment is
// workload-independent, the service curve is a closed-form staircase: the
// discipline needs neither priorities nor competing-demand terms, and its
// lower/upper service bounds differ only through the arrival-bound
// polarity of Lemmas 1 and 2.
//
// Registration covers both layers: the model registry (name "TDMA", JSON
// fields slot/cycle/offset, processor validation) and the sched registry
// (service bounds, simulator gating). Critical sections are rejected on
// TDMA processors — a slot boundary would suspend the holder while other
// subjobs run, which the local-resource blocking model does not cover.
package tdma

import (
	"fmt"

	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/sched"
)

// Sched is the registered Scheduler value of the TDMA discipline.
const Sched = model.Scheduler(3)

type policy struct{}

func (policy) Scheduler() model.Scheduler { return Sched }
func (policy) Name() string               { return "TDMA" }
func (policy) Preemptive() bool           { return false }

// slotIndex returns the subjob's position in the processor's slot table:
// its index in the deterministic (job, hop) order of Topology.OnProc.
func slotIndex(topo *model.Topology, r model.SubjobRef) int {
	return topo.OnProcPos(r)
}

// availability returns the cumulative slot time A(t) the processor grants
// the subjob owning slot base = Offset + idx*Slot: slope 1 inside the
// windows [base + n*Cycle, base + n*Cycle + Slot), slope 0 outside.
// Windows are enumerated only far enough to serve the given demand: one
// window per cycle up to the last demand jump, then enough windows to
// drain the total demand. Truncation is sound and, with this horizon,
// exact — the transform below saturates at the demand total before the
// horizon ends, and beyond saturation both curves are constant.
func availability(slot, cycle, base model.Ticks, demand *curve.Curve) *curve.Curve {
	total, ok := demand.Sup()
	if !ok || total <= 0 {
		return curve.Zero()
	}
	bps := demand.Breakpoints()
	last := bps[len(bps)-1].X
	var beforeLast model.Ticks
	if last > base {
		beforeLast = (last - base) / cycle
	}
	count := beforeLast + 1 + (total+slot-1)/slot + 1
	starts := make([]model.Ticks, count)
	for i := range starts {
		starts[i] = base + model.Ticks(i)*cycle
	}
	// The utilization transform of a slot-capacity staircase is exactly
	// the windowed availability: U(t) = min_{s<=t}{t - s + G(s)} grows at
	// unit rate inside each window and is flat between windows, because
	// consecutive windows are at least a slot apart (count*Slot <= Cycle).
	return curve.Utilization(curve.Staircase(starts, slot))
}

// ServiceBounds: service under TDMA is the availability staircase gated by
// the subjob's own workload — Theorem 3's transform with the slot schedule
// as the availability and no competing-demand term. The transform is
// monotone in the demand, so instantiating it with the latest-arrival
// (lower) and earliest-arrival (upper) workloads of Lemmas 1 and 2 yields
// sound lower and upper service bounds.
func (policy) ServiceBounds(ctx *sched.ServiceContext) (lo, hi *curve.Curve) {
	r := ctx.Ref
	proc := ctx.Sys.Subjob(r).Proc
	p := &ctx.Sys.Procs[proc]
	base := p.Offset + model.Ticks(slotIndex(ctx.Topo, r))*p.Slot
	demandLo, demandHi := ctx.Demand(r)
	lo = curve.ServiceTransform(availability(p.Slot, p.Cycle, base, demandLo), demandLo)
	hi = curve.ServiceTransform(availability(p.Slot, p.Cycle, base, demandHi), demandHi)
	return lo, hi
}

// Order: slots never overlap, so instances of different subjobs are never
// simultaneously eligible; within one subjob the shared deterministic
// (job, hop, idx) tie-break serves instances in release order.
func (policy) Order(ctx *sched.SimContext, a, b sched.Instance) bool { return false }

// Gate reports whether subjob r's slot is open at time now: the end of the
// current window when open, the next window start when closed.
func (policy) Gate(sys *model.System, r model.SubjobRef, now model.Ticks) (bool, model.Ticks) {
	proc := sys.Subjob(r).Proc
	p := &sys.Procs[proc]
	base := p.Offset + model.Ticks(slotIndex(sys.Topology(), r))*p.Slot
	if now < base {
		return false, base
	}
	start := base + (now-base)/p.Cycle*p.Cycle
	if now < start+p.Slot {
		return true, start + p.Slot
	}
	return false, start + p.Cycle
}

// RandomizeProc makes a randomly generated processor valid under TDMA:
// slot parameters sized to the subjobs assigned to it, and no critical
// sections (which TDMA rejects).
func (policy) RandomizeProc(rng interface{ Intn(int) int }, sys *model.System, p int) {
	count := 0
	for k := range sys.Jobs {
		for j := range sys.Jobs[k].Subjobs {
			sj := &sys.Jobs[k].Subjobs[j]
			if sj.Proc == p {
				count++
				sj.CS = nil
			}
		}
	}
	if count == 0 {
		count = 1
	}
	proc := &sys.Procs[p]
	proc.Slot = model.Ticks(1 + rng.Intn(4))
	proc.Cycle = model.Ticks(count)*proc.Slot + model.Ticks(rng.Intn(8))
	proc.Offset = model.Ticks(rng.Intn(int(proc.Cycle)))
}

// validateProc checks the slot parameters and the no-critical-section
// restriction during System.Validate.
func validateProc(s *model.System, p int) error {
	proc := &s.Procs[p]
	if proc.Slot <= 0 {
		return fmt.Errorf("tdma: processor %d needs a positive slot, got %d", p, proc.Slot)
	}
	if proc.Cycle <= 0 {
		return fmt.Errorf("tdma: processor %d needs a positive cycle, got %d", p, proc.Cycle)
	}
	if proc.Offset < 0 {
		return fmt.Errorf("tdma: processor %d has negative offset %d", p, proc.Offset)
	}
	count := 0
	for k := range s.Jobs {
		for j := range s.Jobs[k].Subjobs {
			sj := &s.Jobs[k].Subjobs[j]
			if sj.Proc != p {
				continue
			}
			count++
			if len(sj.CS) > 0 {
				return fmt.Errorf("tdma: processor %d: job %d hop %d declares critical sections, unsupported under TDMA", p, k, j)
			}
		}
	}
	if model.Ticks(count)*proc.Slot > proc.Cycle {
		return fmt.Errorf("tdma: processor %d: %d slots of %d ticks exceed the cycle of %d", p, count, proc.Slot, proc.Cycle)
	}
	return nil
}

func init() {
	model.RegisterScheduler(model.SchedulerInfo{
		Sched:        Sched,
		Name:         "TDMA",
		ValidateProc: validateProc,
		// No HigherPriorityService/DemandDeps: the slot schedule is
		// independent of the co-located workload, so a TDMA subjob's only
		// analysis input is its own previous hop. The slot *assignment*
		// does depend on the OnProc position, which PositionDependent
		// exposes to delta re-analysis.
		PositionDependent: true,
	})
	sched.Register(policy{})
}
