package model

// The scheduler registry decouples the model layer from the set of
// scheduling disciplines. Each discipline registers a SchedulerInfo that
// carries everything the model itself needs to know about it: the
// canonical name (JSON encoding, CLI parsing), the discipline's
// contribution to the analysis dependency graph (which co-located subjobs'
// outputs feed a subjob's analysis), and any processor-parameter
// validation. The analytic service-bound transforms and the simulator's
// queueing rule live one layer up, in internal/sched, keyed by the same
// Scheduler values; a new discipline registers in both places from its own
// package's init (see internal/sched/tdma for the worked example).

import (
	"fmt"
	"sort"
)

// SchedulerInfo describes one scheduling discipline to the model layer.
type SchedulerInfo struct {
	// Sched is the registry key. Values 0-2 are taken by the built-ins.
	Sched Scheduler
	// Name is the canonical abbreviation used by String, ParseScheduler
	// and the JSON codec. Must be unique and non-empty.
	Name string
	// HigherPriorityService declares that the analysis of a subjob reads
	// the service bounds of exactly the strictly higher-priority subjobs
	// on its processor — the ByPriority prefix before it (the
	// interference terms of Theorems 5/6 and of the exact Equation 10
	// under static-priority scheduling). The topology index stores the
	// relation as the priority order itself: one dependency edge to the
	// immediate higher-priority neighbor (the rest of the prefix is
	// reached through it) and ServiceReaders as the ByPriority suffix.
	HigherPriorityService bool
	// DemandDeps lists the co-located subjobs whose *arrival/demand
	// curves* feed r's analysis (e.g. the processor-wide total workload of
	// Equation 21 under FCFS). The subjob itself may be included and is
	// ignored where redundant. nil means no such inputs. The callback runs
	// while the topology index is being built and may only use its
	// per-processor views (ID, OnProc, ByPriority, PrioPos, Higher); the
	// returned slice is not retained or mutated.
	DemandDeps func(s *System, t *Topology, r SubjobRef) []SubjobRef
	// ValidateProc, when non-nil, checks the discipline-specific processor
	// parameters (e.g. TDMA slot/cycle) during System.Validate. It runs
	// after the structural checks, so subjob processor indices are valid.
	ValidateProc func(s *System, p int) error
	// PositionDependent marks disciplines whose service bounds depend on a
	// subjob's *position* in the processor's OnProc admission order rather
	// than only on its declared parameters (TDMA's slot assignment). Delta
	// re-analysis (analysis.Session) uses it to dirty subjobs whose OnProc
	// position shifted even though none of their own fields changed.
	PositionDependent bool
}

var (
	schedulerInfos = map[Scheduler]SchedulerInfo{}
	schedulerNames = map[string]Scheduler{}
)

// RegisterScheduler adds a scheduling discipline to the model registry.
// It must be called from a package init (the registry is not synchronized)
// and panics on a duplicate key or name.
func RegisterScheduler(info SchedulerInfo) {
	if info.Name == "" {
		panic(fmt.Sprintf("model: scheduler %d registered without a name", int(info.Sched)))
	}
	if prev, dup := schedulerInfos[info.Sched]; dup {
		panic(fmt.Sprintf("model: scheduler %d registered twice (%s, %s)", int(info.Sched), prev.Name, info.Name))
	}
	if _, dup := schedulerNames[info.Name]; dup {
		panic(fmt.Sprintf("model: scheduler name %q registered twice", info.Name))
	}
	schedulerInfos[info.Sched] = info
	schedulerNames[info.Name] = info.Sched
}

// LookupScheduler returns the registered info for s.
func LookupScheduler(s Scheduler) (SchedulerInfo, bool) {
	info, ok := schedulerInfos[s]
	return info, ok
}

// SchedulerRegistered reports whether s is a registered discipline.
func SchedulerRegistered(s Scheduler) bool {
	_, ok := schedulerInfos[s]
	return ok
}

// RegisteredSchedulers returns every registered Scheduler value in
// ascending order (the built-ins first, extensions after).
func RegisteredSchedulers() []Scheduler {
	out := make([]Scheduler, 0, len(schedulerInfos))
	for s := range schedulerInfos {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// colocatedDemandDeps is the DemandDeps rule of FCFS: every subjob on the
// processor contributes to the total-workload function of Equation (21).
// The shared OnProc slice includes r itself, which consumers ignore.
func colocatedDemandDeps(s *System, t *Topology, r SubjobRef) []SubjobRef {
	return t.OnProc(s.Subjob(r).Proc)
}

func init() {
	RegisterScheduler(SchedulerInfo{Sched: SPP, Name: "SPP", HigherPriorityService: true})
	RegisterScheduler(SchedulerInfo{Sched: SPNP, Name: "SPNP", HigherPriorityService: true})
	RegisterScheduler(SchedulerInfo{Sched: FCFS, Name: "FCFS", DemandDeps: colocatedDemandDeps})
}
