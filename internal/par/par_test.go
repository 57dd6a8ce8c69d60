package par

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestLevelRunsEveryID: every node of one dependency level (no edges)
// runs exactly once at every worker count.
func TestLevelRunsEveryID(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 8, 100} {
		var ran [64]atomic.Int32
		err := Run(nil, 64, nil, nil, workers, func(id int) { ran[id].Add(1) })
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for id := range ran {
			if n := ran[id].Load(); n != 1 {
				t.Fatalf("workers=%d: id %d ran %d times", workers, id, n)
			}
		}
	}
}

// TestLevelPanicPropagates: the first worker panic re-raises on the
// calling goroutine after the pool has drained, at every worker count.
func TestLevelPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		func() {
			defer func() {
				r := recover()
				if r != "boom 13" {
					t.Fatalf("workers=%d: recovered %v, want boom 13", workers, r)
				}
			}()
			Run(nil, 32, nil, nil, workers, func(id int) {
				if id == 13 {
					panic("boom 13")
				}
			})
			t.Fatalf("workers=%d: Run returned instead of panicking", workers)
		}()
	}
}

// TestLevelPanicStopsNewItems: after a panic, the pool stops pulling new
// items (in-flight ones drain; nothing new starts).
func TestLevelPanicStopsNewItems(t *testing.T) {
	var started atomic.Int32
	func() {
		defer func() { recover() }()
		Run(nil, 1000, nil, nil, 2, func(id int) {
			started.Add(1)
			if id == 0 {
				panic("stop")
			}
			time.Sleep(100 * time.Microsecond)
		})
	}()
	// The panicking item plus at most a handful in flight on the other
	// worker; far fewer than the full level.
	if n := started.Load(); n > 100 {
		t.Fatalf("%d items started after the panic, want a handful", n)
	}
}

// canceledAfter is a fake context that reports itself canceled once
// Err has been called n times — a deterministic probe for the polling
// contract (Run promises plain Err polling, no channel selects).
type canceledAfter struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *canceledAfter) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestLevelSerialCancellation: the serial path polls Err before each item
// and stops exactly where the fake context trips.
func TestLevelSerialCancellation(t *testing.T) {
	ctx := &canceledAfter{Context: context.Background(), limit: 3}
	var ran int
	err := Run(ctx, 10, nil, nil, 1, func(id int) { ran++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d items before cancellation, want 3", ran)
	}
}

// TestLevelParallelCancellation: a pre-canceled context runs nothing and
// returns its error from the parallel path too.
func TestLevelParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Run(ctx, 100, nil, nil, 8, func(id int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d items ran under a pre-canceled context", n)
	}
}

// TestLevelMidflightCancellation: cancelling mid-level stops new pulls and
// Run still returns the context error after the drain.
func TestLevelMidflightCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := Run(ctx, 10000, nil, nil, 4, func(id int) {
		if ran.Add(1) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n == int32(10000) {
		t.Fatal("cancellation did not stop the level")
	}
}

// TestLevelEmpty: an empty level is a no-op with a nil error.
func TestLevelEmpty(t *testing.T) {
	if err := Run(nil, 0, nil, nil, 8, func(id int) { t.Fatal("ran") }); err != nil {
		t.Fatal(err)
	}
}

// TestRunSubsetDispatchPreference: among ready nodes the serial sweep
// dispatches the one listed first in ids, whatever the id values.
func TestRunSubsetDispatchPreference(t *testing.T) {
	deps := func(id int) []int {
		if id == 9 {
			return []int{1}
		}
		return nil
	}
	dependents := func(id int) []int {
		if id == 1 {
			return []int{9}
		}
		return nil
	}
	var got []int
	if err := RunSubset(nil, []int{7, 9, 1, 3}, deps, dependents, 1, func(id int) { got = append(got, id) }); err != nil {
		t.Fatalf("RunSubset: %v", err)
	}
	if want := []int{7, 1, 9, 3}; !slices.Equal(got, want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
}
