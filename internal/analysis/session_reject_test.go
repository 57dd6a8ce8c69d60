package analysis

import (
	"fmt"
	"testing"

	"rta/internal/benchsys"
	"rta/internal/model"
	"rta/internal/priority"
	"rta/internal/sched/tdma"
)

// rejectSystem builds the early-reject test shop: 10 jobs of 4 hops,
// chains or fork-join DAGs, communication latencies after the first hop,
// and every third job under ReleaseGuard (the per-instance bound, never
// used to reject early). The deadlines of job 1 (DirectSync) and job 3
// (ReleaseGuard) are pinned to their bounds: a newcomer that interferes
// with job 1 is rejected on an old job's miss rather than its own, and
// job 3's sum of per-hop bounds exceeds its deadline while the job still
// meets it.
func rejectSystem(t *testing.T, sc model.Scheduler, forkJoin bool) *model.System {
	t.Helper()
	sys := churnSystem(sc, 10, 4, 6, 8)
	if forkJoin {
		fj := benchsys.LargeForkJoin(10, 4, 6, sc)
		for k := range sys.Jobs {
			sys.Jobs[k].Precedence = fj.Jobs[k].Precedence
		}
	}
	for k := range sys.Jobs {
		sys.Jobs[k].Subjobs[0].PostDelay = model.Ticks(k % 3)
		if k%3 == 0 {
			sys.Jobs[k].Sync = model.ReleaseGuard
			sys.Jobs[k].Period = 30
		}
	}
	res, err := AnalyzeOpts(sys, Options{})
	if err != nil {
		t.Fatalf("AnalyzeOpts: %v", err)
	}
	sys.Jobs[1].Deadline = res.WCRTSum[1]
	sys.Jobs[3].Deadline = res.WCRTSum[3]
	return sys
}

// rejectCounts tallies how the verdicts of a property run were reached.
type rejectCounts struct{ accepts, earlyRejects, fullRejects int }

// verdictHarness drives a session the way the admission controller does
// (stage, reassign under dm, Schedulable, then Commit or Rollback) next to
// a mirror session that reaches every verdict through a full Converge.
type verdictHarness struct {
	t         *testing.T
	s, mirror *Session
	opts      Options
	dm        bool
	counts    *rejectCounts
}

func newVerdictHarness(t *testing.T, sys *model.System, opts Options, dm bool, counts *rejectCounts) *verdictHarness {
	t.Helper()
	if dm {
		sys = sys.Clone()
		priority.RelativeDeadlineMonotonic(sys)
	}
	s, err := NewSession(sys, SessionConfig{Opts: opts})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	mirror, err := NewSession(sys, SessionConfig{Opts: opts})
	if err != nil {
		t.Fatalf("NewSession (mirror): %v", err)
	}
	return &verdictHarness{t: t, s: s, mirror: mirror, opts: opts, dm: dm, counts: counts}
}

// stage applies one staged change to both sessions, then the policy's
// priority reassignment.
func (h *verdictHarness) stage(change func(*Session) error) {
	h.t.Helper()
	for _, s := range []*Session{h.s, h.mirror} {
		if err := change(s); err != nil {
			h.t.Fatalf("stage: %v", err)
		}
		if h.dm {
			if err := s.Mutate(func(m *model.System) error {
				priority.RelativeDeadlineMonotonic(m)
				return nil
			}); err != nil {
				h.t.Fatalf("reassign: %v", err)
			}
		}
	}
}

// decide compares Schedulable's verdict against a full Converge of the
// same staged system (and against cold analysis), then commits an accept
// or rolls back a reject; after a reject the committed Result must still
// be field-identical to cold analysis.
func (h *verdictHarness) decide(label string) bool {
	h.t.Helper()
	res, err := h.mirror.Converge()
	if err != nil {
		h.t.Fatalf("%s: mirror Converge: %v", label, err)
	}
	working := h.mirror.WorkingSystem()
	want := res.Schedulable(working)
	cold, err := AnalyzeOpts(working, h.opts)
	if err != nil {
		h.t.Fatalf("%s: AnalyzeOpts: %v", label, err)
	}
	if cold.Schedulable(working) != want {
		h.t.Fatalf("%s: cold verdict differs from the mirror's", label)
	}
	before := h.s.Stats().EarlyRejects
	got, err := h.s.Schedulable()
	if err != nil {
		h.t.Fatalf("%s: Schedulable: %v", label, err)
	}
	if got != want {
		h.t.Fatalf("%s: Schedulable = %v, full converge says %v", label, got, want)
	}
	early := h.s.Stats().EarlyRejects - before
	switch {
	case got && early != 0:
		h.t.Fatalf("%s: an accepted verdict counted an early reject", label)
	case got:
		h.counts.accepts++
		h.s.Commit()
		h.mirror.Commit()
		return true
	case early == 1:
		h.counts.earlyRejects++
	default:
		h.counts.fullRejects++
	}
	h.s.Rollback()
	h.mirror.Rollback()
	committed, err := h.s.Result()
	if err != nil {
		h.t.Fatalf("%s: Result after rollback: %v", label, err)
	}
	cold, err = AnalyzeOpts(h.s.System(), h.opts)
	if err != nil {
		h.t.Fatalf("%s: AnalyzeOpts (committed): %v", label, err)
	}
	requireSameResult(h.t, label+" (committed after reject)", cold, committed)
	return false
}

// remove stages a removal the way the controller does: reassign, converge
// and commit unconditionally.
func (h *verdictHarness) remove(k int) {
	h.t.Helper()
	h.stage(func(s *Session) error { return s.Remove(k) })
	for _, s := range []*Session{h.s, h.mirror} {
		if _, err := s.Converge(); err != nil {
			h.t.Fatalf("remove: Converge: %v", err)
		}
		s.Commit()
	}
}

// TestSchedulableEarlyRejectMatchesConverge: the verdict-only Schedulable
// (which stops at the first proven miss) agrees with Result.Schedulable
// after a full Converge of the same staged system, over every acyclic
// engine, both priority policies, chains and fork-join DAGs, DirectSync
// and ReleaseGuard jobs, and one and two workers.
func TestSchedulableEarlyRejectMatchesConverge(t *testing.T) {
	var counts rejectCounts
	for _, sc := range []model.Scheduler{model.SPP, model.SPNP, model.FCFS, tdma.Sched} {
		for _, shape := range []string{"chain", "forkjoin"} {
			for _, policy := range []string{"keep", "dm"} {
				for _, workers := range []int{1, 2} {
					name := fmt.Sprintf("%v/%s/%s/w%d", sc, shape, policy, workers)
					t.Run(name, func(t *testing.T) {
						base := rejectSystem(t, sc, shape == "forkjoin")
						h := newVerdictHarness(t, base, Options{Workers: workers}, policy == "dm", &counts)
						for round := 0; round < 3; round++ {
							// Cycle the last three jobs: remove, re-admit, then
							// probes the admitted set must reject or accept.
							k := h.s.Jobs() - 3 + round%3
							job := cloneJob(h.s.System().Jobs[k])
							h.remove(k)
							h.stage(func(s *Session) error { s.Admit(job); return nil })
							h.decide(fmt.Sprintf("round %d re-admit", round))

							probe := cloneJob(job)
							probe.Name = "probe"
							probe.Deadline = 1
							h.stage(func(s *Session) error { s.Admit(probe); return nil })
							h.decide(fmt.Sprintf("round %d deadline-1 probe", round))

							// A ReleaseGuard probe never rejects early.
							guarded := cloneJob(probe)
							guarded.Sync, guarded.Period = model.ReleaseGuard, 30
							h.stage(func(s *Session) error { s.Admit(guarded); return nil })
							h.decide(fmt.Sprintf("round %d guarded probe", round))

							// A heavy top-priority newcomer that may push the
							// pinned job 1 past its deadline.
							heavy := cloneJob(job)
							heavy.Name = "heavy"
							heavy.Deadline = 1 << 40
							for j := range heavy.Subjobs {
								heavy.Subjobs[j].Exec += model.Ticks(4 * (round + 1))
								heavy.Subjobs[j].Priority = -1
							}
							h.stage(func(s *Session) error { s.Admit(heavy); return nil })
							h.decide(fmt.Sprintf("round %d heavy newcomer", round))

							// A deadline-only change dirties nothing: the
							// verdict comes from the full check.
							h.stage(func(s *Session) error {
								return s.Mutate(func(m *model.System) error {
									m.Jobs[2].Deadline = 1
									return nil
								})
							})
							h.decide(fmt.Sprintf("round %d deadline cut", round))
						}
					})
				}
			}
		}
	}
	t.Logf("accepts %d, early rejects %d, full-check rejects %d", counts.accepts, counts.earlyRejects, counts.fullRejects)
	if counts.accepts == 0 || counts.earlyRejects == 0 || counts.fullRejects == 0 {
		t.Fatalf("the script must reach every verdict path: %+v", counts)
	}
}

// TestSessionStatsWarmChurn: a warmed-up dm churn cycle (remove, re-admit,
// deadline-1 probe) stays warm — every converge a delta, none cold — and
// rejects each probe early exactly once.
func TestSessionStatsWarmChurn(t *testing.T) {
	for _, sc := range []model.Scheduler{model.SPNP, model.SPP} {
		t.Run(sc.String(), func(t *testing.T) {
			var counts rejectCounts
			h := newVerdictHarness(t, churnSystem(sc, 12, 4, 6, 0), Options{Workers: 1}, true, &counts)
			cycle := func(i int) {
				k := h.s.Jobs() - 3 + i%3
				job := cloneJob(h.s.System().Jobs[k])
				h.remove(k)
				h.stage(func(s *Session) error { s.Admit(job); return nil })
				if !h.decide("re-admit") {
					t.Fatalf("cycle %d: re-admit rejected", i)
				}
				probe := cloneJob(job)
				probe.Name = "probe"
				probe.Deadline = 1
				h.stage(func(s *Session) error { s.Admit(probe); return nil })
				if h.decide("probe") {
					t.Fatalf("cycle %d: deadline-1 probe admitted", i)
				}
			}
			cycle(0) // warm-up
			before := h.s.Stats()
			const n = 6
			for i := 1; i <= n; i++ {
				cycle(i)
			}
			after := h.s.Stats()
			if d := after.ColdConverges - before.ColdConverges; d != 0 {
				t.Errorf("%d cold converges in %d warm cycles, want 0", d, n)
			}
			if d := after.EarlyRejects - before.EarlyRejects; d != n {
				t.Errorf("%d early rejects in %d probes, want %d", d, n, n)
			}
			if d := after.DeltaConverges - before.DeltaConverges; d != 3*n {
				t.Errorf("%d delta converges in %d cycles, want %d", d, n, 3*n)
			}
			if after.LastCone <= 0 {
				t.Errorf("LastCone = %d after a delta converge", after.LastCone)
			}
		})
	}
}
