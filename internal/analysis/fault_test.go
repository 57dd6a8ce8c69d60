package analysis

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rta/internal/curve"
	"rta/internal/model"
	"rta/internal/randsys"
)

// faultSystem draws a deterministic mixed-scheduler system for the
// containment tests.
func faultSystem(seed int64, scheds ...model.Scheduler) *model.System {
	r := rand.New(rand.NewSource(seed))
	cfg := randsys.Default
	if len(scheds) > 0 {
		cfg.Schedulers = scheds
	}
	return randsys.New(r, cfg)
}

// TestCanceledContextDeterministic: a pre-canceled context makes every
// entry point return an error wrapping context.Canceled, with no result,
// at every worker count.
func TestCanceledContextDeterministic(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := faultSystem(71)
	spp := faultSystem(72, model.SPP)
	for _, workers := range []int{1, 8} {
		opts := Options{Workers: workers, Context: ctx}
		cases := []struct {
			name string
			run  func() (*Result, error)
		}{
			{"Approximate", func() (*Result, error) { return ApproximateOpts(sys, opts) }},
			{"Exact", func() (*Result, error) { return ExactOpts(spp, opts) }},
			{"Analyze", func() (*Result, error) { return AnalyzeOpts(sys, opts) }},
			{"Iterative", func() (*Result, error) { return IterativeOpts(sys, 0, opts) }},
		}
		for _, tc := range cases {
			res, err := tc.run()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s workers=%d: err = %v, want context.Canceled", tc.name, workers, err)
			}
			if res != nil {
				t.Fatalf("%s workers=%d: returned a result under a pre-canceled context", tc.name, workers)
			}
		}
	}
}

// TestUnbudgetedOptionsUnobserved: passing an explicit background context
// and a huge budget is behaviorally invisible — the results are
// field-identical to the plain run, at several worker counts.
func TestUnbudgetedOptionsUnobserved(t *testing.T) {
	huge := Budget{Breakpoints: 1 << 60, FixedPointSteps: 1 << 60}
	for trial := int64(0); trial < 10; trial++ {
		sys := faultSystem(80 + trial)
		plain, perr := AnalyzeOpts(sys, Options{})
		for _, workers := range []int{1, 4} {
			got, gerr := AnalyzeOpts(sys, Options{
				Workers: workers, Context: context.Background(), Budget: huge,
			})
			if (perr == nil) != (gerr == nil) {
				t.Fatalf("trial %d workers=%d: error mismatch %v vs %v", trial, workers, perr, gerr)
			}
			if perr != nil {
				continue
			}
			requireSameResult(t, "Analyze+options", plain, got)
		}
		iplain, ierr := IterativeOpts(sys, 0, Options{})
		igot, igerr := IterativeOpts(sys, 0, Options{Context: context.Background(), Budget: huge})
		if (ierr == nil) != (igerr == nil) {
			t.Fatalf("trial %d: iterative error mismatch %v vs %v", trial, ierr, igerr)
		}
		requireSameResult(t, "Iterative+options", iplain, igot)
	}
}

// checkBudgetPartial asserts the partial-result contract against the
// unbudgeted reference: every finite bound matches, the rest are Inf.
func checkBudgetPartial(t *testing.T, label string, full, part *Result) {
	t.Helper()
	for k := range full.WCRTSum {
		if curve.IsInf(part.WCRTSum[k]) {
			continue
		}
		if part.WCRTSum[k] != full.WCRTSum[k] || part.WCRT[k] != full.WCRT[k] {
			t.Fatalf("%s: job %d partial bounds (%d, %d) differ from converged (%d, %d)",
				label, k, part.WCRT[k], part.WCRTSum[k], full.WCRT[k], full.WCRTSum[k])
		}
	}
}

// requireBudgetPartials sweeps run's breakpoint ceiling from starvation
// to abundance: each budgeted run either fails cleanly, returns a partial
// result flagged with method whose finite bounds equal the converged ones
// (run with no ceiling), or completes identically to the unbudgeted run.
func requireBudgetPartials(t *testing.T, label, method string, run func(breakpoints int64) (*Result, error)) {
	t.Helper()
	full, err := run(0)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sawPartial := false
	for b := int64(1); ; b *= 2 {
		res, err := run(b)
		if err == nil {
			requireSameResult(t, label+" converged under budget", full, res)
			break
		}
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s budget %d: err = %v, want ErrBudgetExceeded", label, b, err)
		}
		if res == nil {
			continue // tripped before any hop was computed
		}
		if res.Method != method {
			t.Fatalf("%s budget %d: Method = %q, want %q", label, b, res.Method, method)
		}
		sawPartial = true
		checkBudgetPartial(t, fmt.Sprintf("%s budget %d", label, b), full, res)
		if b > 1<<40 {
			t.Fatalf("%s: budget never sufficed", label)
		}
	}
	if !sawPartial {
		t.Errorf("%s: no budget produced a partial result; the sweep never exercised the partial path", label)
	}
}

// warmBudgetRun converges a session over a churn system unbudgeted, then
// admits a top-priority newcomer with triple execution times and
// converges that delta under the breakpoint ceiling. The newcomer raises
// the bounds of every job below it, so a partial delta that reported a
// cone hop's resident (pre-admission) rows as computed would show
// finite bounds below the converged ones.
func warmBudgetRun(t *testing.T, sc model.Scheduler) func(breakpoints int64) (*Result, error) {
	base := churnSystem(sc, 20, 4, 8, 4)
	newcomer := cloneJob(base.Jobs[0])
	newcomer.Name = "newcomer"
	for j := range newcomer.Subjobs {
		newcomer.Subjobs[j].Exec *= 3
		newcomer.Subjobs[j].Priority = -1
	}
	return func(breakpoints int64) (*Result, error) {
		s, err := NewSession(base, SessionConfig{})
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		s.SetOptions(Options{Budget: Budget{Breakpoints: breakpoints}})
		s.Admit(newcomer)
		return s.Converge()
	}
}

// TestBreakpointBudgetPartialApproximate: the budget sweep over the
// approximate engine, cold and as a warm session delta.
func TestBreakpointBudgetPartialApproximate(t *testing.T) {
	sys := faultSystem(90)
	requireBudgetPartials(t, "cold", "App(budget)", func(b int64) (*Result, error) {
		return ApproximateOpts(sys, Options{Budget: Budget{Breakpoints: b}})
	})
	for _, sc := range []model.Scheduler{model.SPNP, model.FCFS} {
		requireBudgetPartials(t, fmt.Sprintf("warm %v", sc), "App(budget)", warmBudgetRun(t, sc))
	}
}

// TestBreakpointBudgetPartialExact: the same sweep over the all-SPP exact
// engine.
func TestBreakpointBudgetPartialExact(t *testing.T) {
	sys := faultSystem(91, model.SPP)
	requireBudgetPartials(t, "cold", "SPP/Exact(budget)", func(b int64) (*Result, error) {
		return ExactOpts(sys, Options{Budget: Budget{Breakpoints: b}})
	})
	requireBudgetPartials(t, "warm SPP", "SPP/Exact(budget)", warmBudgetRun(t, model.SPP))
}

// TestStepBudgetIterative: the fixed-point step ceiling stops the
// iteration with a flagged partial result; finite bounds match the
// converged fixed point, and a generous ceiling is unobservable.
func TestStepBudgetIterative(t *testing.T) {
	sys := faultSystem(92)
	full, err := IterativeOpts(sys, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sawPartial := false
	for b := int64(1); ; b *= 2 {
		res, err := IterativeOpts(sys, 0, Options{Budget: Budget{FixedPointSteps: b}})
		if err == nil {
			requireSameResult(t, "iterative under budget", full, res)
			break
		}
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("steps %d: err = %v, want ErrBudgetExceeded", b, err)
		}
		if res == nil {
			t.Fatalf("steps %d: step-budgeted run lost its partial result", b)
		}
		if res.Method != "App/Iterative(budget)" {
			t.Fatalf("steps %d: Method = %q", b, res.Method)
		}
		sawPartial = true
		checkBudgetPartial(t, "Iterative", full, res)
		if b > 1<<40 {
			t.Fatal("step budget never sufficed")
		}
	}
	if !sawPartial {
		t.Error("no step budget produced a partial result")
	}
}
