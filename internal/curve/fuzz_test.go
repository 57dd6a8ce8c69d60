package curve

import (
	"testing"
)

// FuzzCurveOps interprets fuzz bytes as a program over the curve algebra
// — staircase construction, Sum, Min, FloorDiv, Inverse, CompletionTimes
// — restricted to the documented operand contracts, and checks that every
// intermediate result satisfies the Curve invariants: compositions of
// valid operations must never panic or produce an invalid curve. Run with
//
//	go test -fuzz FuzzCurveOps ./internal/curve
func FuzzCurveOps(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 255, 1, 2, 255, 0, 3, 128, 7})
	f.Add([]byte{10, 0, 1, 20, 2, 2, 30, 4, 3, 40, 6, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 5
			}
			v := data[0]
			data = data[1:]
			return v
		}
		check := func(op string, c *Curve) *Curve {
			t.Helper()
			if err := c.Validate(); err != nil {
				t.Fatalf("%s produced an invalid curve: %v", op, err)
			}
			return c
		}
		// Build a small pool of staircases: jumps are cumulative byte sums
		// (sorted, non-negative, duplicates allowed via zero gaps).
		var pool []*Curve
		for len(pool) < 4 && len(data) > 0 {
			n := int(next()%6) + 1
			jumps := make([]Time, 0, n)
			cum := Time(0)
			for i := 0; i < n; i++ {
				cum += Time(next() % 64)
				jumps = append(jumps, cum)
			}
			height := Value(next()%8) + 1
			pool = append(pool, check("Staircase", Staircase(jumps, height)))
		}
		if len(pool) == 0 {
			return
		}
		pick := func() *Curve { return pool[int(next())%len(pool)] }
		for steps := 0; steps < 16 && len(data) > 0; steps++ {
			switch next() % 5 {
			case 0:
				pool = append(pool, check("Sum", Sum(pick(), pick())))
			case 1:
				pool = append(pool, check("Min", pick().Min(pick())))
			case 2:
				tau := Value(next()%7) + 1
				pool = append(pool, check("FloorDiv", pick().FloorDiv(tau)))
			case 3:
				// Pseudo-inverse consistency: where Inverse(y) is finite the
				// curve actually reaches y there, and not strictly before.
				c := pick()
				y := Value(next() % 32)
				x := c.Inverse(y)
				if !IsInf(x) {
					if got := c.Eval(x); got < y {
						t.Fatalf("Eval(Inverse(%d)) = %d < %d on %v", y, got, y, c)
					}
					if x > 0 && c.EvalLeft(x) >= y && c.Eval(x-1) >= y {
						t.Fatalf("Inverse(%d) = %d is not minimal on %v", y, x, c)
					}
				}
			case 4:
				// Completion times are non-decreasing and match the inverse.
				c := pick()
				tau := Value(next()%7) + 1
				n := int(next()%8) + 1
				ts := c.CompletionTimes(tau, n)
				for m, x := range ts {
					if m > 0 && !IsInf(x) && IsInf(ts[m-1]) {
						t.Fatalf("completion %d finite after an Inf predecessor", m)
					}
					if m > 0 && !IsInf(x) && x < ts[m-1] {
						t.Fatalf("completion times decrease at %d: %v", m, ts)
					}
					if want := c.Inverse(Value(m+1) * tau); x != want {
						t.Fatalf("CompletionTimes[%d] = %d, Inverse = %d", m, x, want)
					}
				}
			}
			if len(pool) > 16 {
				pool = pool[len(pool)-8:]
			}
		}
	})
}

// FuzzEvalCursor builds a curve with the FuzzCurveOps constructors
// (staircases, and their sums and minima) plus a non-decreasing query
// list from the fuzz bytes, and checks that an evaluation cursor walked
// over the queries answers exactly Eval and EvalLeft. Run with
//
//	go test -fuzz FuzzEvalCursor ./internal/curve
func FuzzEvalCursor(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 255, 1, 2, 255, 0, 3, 128, 7, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			return v
		}
		stair := func() *Curve {
			n := int(next() % 6)
			jumps := make([]Time, 0, n)
			cum := Time(0)
			for i := 0; i < n; i++ {
				cum += Time(next() % 64)
				jumps = append(jumps, cum)
			}
			return Staircase(jumps, Value(next()%8)+1)
		}
		c := stair()
		switch next() % 4 {
		case 1:
			c = Sum(c, stair())
		case 2:
			c = c.Min(stair())
		case 3:
			// A continuous service-shaped curve with a unit tail.
			c = Utilization(c)
		}
		cur := evalCursor{f: c.f}
		x := Time(0)
		for len(data) > 0 {
			x += Time(next() % 16) // zero steps repeat a query time
			if got, want := cur.left(x), c.EvalLeft(x); got != want {
				t.Fatalf("left(%d) = %d, EvalLeft = %d on %v", x, got, want, c)
			}
			if got, want := cur.right(x), c.Eval(x); got != want {
				t.Fatalf("right(%d) = %d, Eval = %d on %v", x, got, want, c)
			}
		}
	})
}
