package priority_test

// Differential tests against the dense reference ranking. An external
// test package: workload.Generate, one of the input sources, imports
// priority itself.

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rta/internal/benchsys"
	"rta/internal/model"
	"rta/internal/priority"
	"rta/internal/randsys"
	"rta/internal/workload"
)

// denseByKey is the reference ranking the rules must reproduce: the
// original per-processor loop, which re-reads the membership through
// System.OnProc after every processor's writes and recomputes each key
// inside the comparator.
func denseByKey(sys *model.System, key func(model.SubjobRef) float64) {
	for p := range sys.Procs {
		refs := sys.OnProc(p)
		sort.SliceStable(refs, func(a, b int) bool {
			ka, kb := key(refs[a]), key(refs[b])
			if ka != kb {
				return ka < kb
			}
			if refs[a].Job != refs[b].Job {
				return refs[a].Job < refs[b].Job
			}
			return refs[a].Hop < refs[b].Hop
		})
		for rank, ref := range refs {
			sys.Subjob(ref).Priority = rank
		}
	}
}

// denseSubDeadline is Equation (24) written out per subjob.
func denseSubDeadline(sys *model.System) func(model.SubjobRef) float64 {
	return func(ref model.SubjobRef) float64 {
		job := &sys.Jobs[ref.Job]
		var total model.Ticks
		for _, sj := range job.Subjobs {
			total += sj.Exec
		}
		return float64(job.Subjobs[ref.Hop].Exec) / float64(total) * float64(job.Deadline)
	}
}

// priorityVector flattens a system's priorities in (job, hop) order.
func priorityVector(sys *model.System) []int {
	var out []int
	for k := range sys.Jobs {
		for _, sj := range sys.Jobs[k].Subjobs {
			out = append(out, sj.Priority)
		}
	}
	return out
}

// differentialSystems draws the systems the rules are checked on:
// randsys chains (with and without physical loops, so one job can visit a
// processor twice), randsys fork-join DAGs, workload.Generate shops, and
// the tie-heavy benchsys.Large shop (equal deadlines, execution times
// cycling 1..4).
func differentialSystems(t *testing.T) []*model.System {
	t.Helper()
	var out []*model.System
	r := rand.New(rand.NewSource(24))
	for i := 0; i < 40; i++ {
		cfg := randsys.Default
		cfg.MaxJobs = 8
		cfg.Loops = i%2 == 1
		out = append(out, randsys.New(r, cfg), randsys.ForkJoin(r, cfg))
	}
	for i := 0; i < 10; i++ {
		cfg := workload.Default
		cfg.Jobs = 12
		d, err := workload.Generate(r, cfg)
		if err != nil {
			t.Fatalf("workload.Generate: %v", err)
		}
		out = append(out, d.System)
	}
	return append(out, benchsys.Large(benchsys.Jobs, benchsys.Hops, benchsys.Instances, model.SPNP))
}

// TestRulesMatchDenseReference: the single-topology rules produce the
// same priority vectors as the per-processor reference loop.
func TestRulesMatchDenseReference(t *testing.T) {
	for i, sys := range differentialSystems(t) {
		periods := make([]model.Ticks, len(sys.Jobs))
		for k := range periods {
			periods[k] = model.Ticks(1 + (k*7)%5) // ties across jobs
		}
		rules := []struct {
			name      string
			got, want func(*model.System)
		}{
			{"RDM", priority.RelativeDeadlineMonotonic, func(s *model.System) { denseByKey(s, denseSubDeadline(s)) }},
			{"DM", priority.DeadlineMonotonic, func(s *model.System) {
				denseByKey(s, func(ref model.SubjobRef) float64 { return float64(s.Jobs[ref.Job].Deadline) })
			}},
			{"RM", func(s *model.System) { priority.RateMonotonic(s, periods) }, func(s *model.System) {
				denseByKey(s, func(ref model.SubjobRef) float64 { return float64(periods[ref.Job]) })
			}},
		}
		for _, rule := range rules {
			got, want := sys.Clone(), sys.Clone()
			rule.got(got)
			rule.want(want)
			if g, w := priorityVector(got), priorityVector(want); !slices.Equal(g, w) {
				t.Errorf("system %d %s: priorities %v, reference %v", i, rule.name, g, w)
			}
		}
	}
}

// TestReassignReadsOneTopology: with the topology of the submitted
// assignment cached, a deadline-monotonic reassignment of the 50x8 shop
// that moves most priorities allocates a handful of objects per
// processor. Re-reading the membership after each processor's writes
// rebuilt the index once per processor; a single extra build exceeds the
// bound many times over.
func TestReassignReadsOneTopology(t *testing.T) {
	fresh := func() *model.System {
		return benchsys.Large(benchsys.Jobs, benchsys.Hops, benchsys.Instances, model.SPNP)
	}
	sys := fresh()
	submitted := priorityVector(sys)
	sys.Topology()
	resubmit := func() {
		i := 0
		for k := range sys.Jobs {
			for j := range sys.Jobs[k].Subjobs {
				sys.Jobs[k].Subjobs[j].Priority = submitted[i]
				i++
			}
		}
	}
	resubmit()
	priority.RelativeDeadlineMonotonic(sys)
	if slices.Equal(priorityVector(sys), submitted) {
		t.Fatal("reassignment moved no priority; the test needs one that does")
	}
	bound := float64(2 * len(sys.Procs))
	allocs := testing.AllocsPerRun(20, func() {
		resubmit()
		priority.RelativeDeadlineMonotonic(sys)
	})
	t.Logf("reassignment: %.0f allocs per call", allocs)
	if allocs > bound {
		t.Fatalf("RelativeDeadlineMonotonic: %.0f allocs per call, want <= %.0f", allocs, bound)
	}
	// The bound is meaningful only if one index build breaks it.
	build := testing.AllocsPerRun(1, func() { fresh().Topology() }) - testing.AllocsPerRun(1, func() { fresh() })
	t.Logf("one topology build: %.0f allocs", build)
	if build <= bound {
		t.Fatalf("one topology build costs %.0f allocs, not above the bound %.0f", build, bound)
	}
}
