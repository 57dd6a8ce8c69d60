package curve

import (
	"math/rand"
	"testing"
)

// randPL builds a random general pl with slopes in {-1,0,1} and jumps in
// both directions.
func randPL(r *rand.Rand, segs int) pl {
	pts := []Point{{0, Value(r.Intn(21) - 10)}}
	x := Time(0)
	y := pts[0].Y
	for i := 0; i < segs; i++ {
		switch r.Intn(4) {
		case 0:
			dx := Time(1 + r.Intn(8))
			x += dx
			pts = append(pts, Point{x, y})
		case 1:
			dx := Time(1 + r.Intn(8))
			x += dx
			y += dx
			pts = append(pts, Point{x, y})
		case 2:
			dx := Time(1 + r.Intn(8))
			x += dx
			y -= dx
			pts = append(pts, Point{x, y})
		default:
			dy := Value(r.Intn(13) - 6)
			if dy != 0 {
				pts = append(pts, Point{x, y})
				y += dy
				pts = append(pts, Point{x, y})
			}
		}
	}
	tail := int64(r.Intn(3) - 1)
	return canon(pts, tail)
}

func TestCanonPreservesValues(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 500; trial++ {
		f := randPL(r, 12)
		f.check()
		// Canon of canon is identical pointwise.
		g := canon(append([]Point(nil), f.pts...), f.tail)
		for x := Time(0); x <= 120; x++ {
			if f.evalRight(x) != g.evalRight(x) {
				t.Fatalf("trial %d: canon changed value at %d", trial, x)
			}
			if f.evalLeft(x) != g.evalLeft(x) {
				t.Fatalf("trial %d: canon changed left limit at %d", trial, x)
			}
		}
	}
}

func TestAddSubNegRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for trial := 0; trial < 500; trial++ {
		f := randPL(r, 10)
		g := randPL(r, 10)
		sum := f.add(g)
		diff := sum.sub(g)
		sum.check()
		diff.check()
		for x := Time(0); x <= 120; x++ {
			if sum.evalRight(x) != f.evalRight(x)+g.evalRight(x) {
				t.Fatalf("trial %d: add wrong at %d", trial, x)
			}
			if diff.evalRight(x) != f.evalRight(x) {
				t.Fatalf("trial %d: add/sub round trip broken at %d", trial, x)
			}
		}
	}
}

func TestRunningMinDense(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	for trial := 0; trial < 500; trial++ {
		f := randPL(r, 10)
		// Clamp falls to slope >= -1 is already guaranteed by generator.
		m := f.runningMin()
		m.check()
		cur := f.evalRight(0)
		for x := Time(0); x <= 120; x++ {
			if l := f.evalLeft(x); l < cur {
				cur = l
			}
			if v := f.evalRight(x); v < cur {
				cur = v
			}
			if got := m.evalRight(x); got != cur {
				t.Fatalf("trial %d: runningMin at %d: got %d, want %d\nf=%v tail %d",
					trial, x, got, cur, f.pts, f.tail)
			}
		}
	}
}

func TestRunningMaxDense(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	for trial := 0; trial < 500; trial++ {
		f := randPL(r, 10)
		m := f.runningMax()
		m.check()
		cur := f.evalRight(0)
		for x := Time(0); x <= 120; x++ {
			if l := f.evalLeft(x); l > cur {
				cur = l
			}
			if v := f.evalRight(x); v > cur {
				cur = v
			}
			if got := m.evalRight(x); got != cur {
				t.Fatalf("trial %d: runningMax at %d: got %d, want %d", trial, x, got, cur)
			}
		}
	}
}

func TestClampDense(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 500; trial++ {
		f := randPL(r, 10)
		v := Value(r.Intn(21) - 10)
		hi := f.clampMax(v)
		lo := f.clampMin(v)
		hi.check()
		lo.check()
		for x := Time(0); x <= 120; x++ {
			fv := f.evalRight(x)
			wantHi, wantLo := fv, fv
			if wantHi > v {
				wantHi = v
			}
			if wantLo < v {
				wantLo = v
			}
			if got := hi.evalRight(x); got != wantHi {
				t.Fatalf("trial %d: clampMax at %d: got %d, want %d", trial, x, got, wantHi)
			}
			if got := lo.evalRight(x); got != wantLo {
				t.Fatalf("trial %d: clampMin at %d: got %d, want %d", trial, x, got, wantLo)
			}
		}
	}
}

func TestComposeMonotoneDense(t *testing.T) {
	r := rand.New(rand.NewSource(68))
	for trial := 0; trial < 500; trial++ {
		// f: monotone slopes {0,1} over the VALUE domain of g; g:
		// continuous monotone slopes {0,1}.
		f := randMonotone(r, 10, 200).f
		g := randContinuous(r, 10, 120).f
		// composeMonotone requires f continuous as well: rebuild without
		// jumps by using a continuous random curve.
		f = randContinuous(r, 10, 200).f
		h := composeMonotone(nil, f, g)
		h.check()
		for x := Time(0); x <= 140; x++ {
			want := f.evalRight(g.evalRight(x))
			if got := h.evalRight(x); got != want {
				t.Fatalf("trial %d: compose at %d: got %d, want %d", trial, x, got, want)
			}
		}
	}
}

// TestEvalCursorMatchesEval: a cursor walked over a non-decreasing query
// sequence gives exactly evalRight and evalLeft at every query, on
// general curves with jumps both ways, negative slopes and nonzero tails.
// Queries repeat, start at t = 0, hit every breakpoint (so every jump) and
// run past the last one into the tail.
func TestEvalCursorMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	for trial := 0; trial < 500; trial++ {
		f := randPL(r, 1+r.Intn(14))
		var qs []Time
		for _, p := range f.pts {
			qs = append(qs, p.X)
		}
		last := f.pts[len(f.pts)-1].X
		for k := 0; k < 30; k++ {
			qs = append(qs, Time(r.Intn(int(last)+20)))
		}
		qs = append(qs, 0, 0, last, last+1, last+50)
		sortTimes(qs)
		c, cl := evalCursor{f: f}, evalCursor{f: f}
		for _, x := range qs {
			// One cursor mixes left and right at each query; the other
			// only ever answers left queries.
			if got, want := c.left(x), f.evalLeft(x); got != want {
				t.Fatalf("trial %d: left(%d) = %d, evalLeft = %d on %v", trial, x, got, want, f.pts)
			}
			if got, want := c.right(x), f.evalRight(x); got != want {
				t.Fatalf("trial %d: right(%d) = %d, evalRight = %d on %v", trial, x, got, want, f.pts)
			}
			if got, want := cl.left(x), f.evalLeft(x); got != want {
				t.Fatalf("trial %d: left-only left(%d) = %d, evalLeft = %d", trial, x, got, want)
			}
		}
		// A backward query is answered exactly, not from the stale index.
		if x := Time(r.Intn(int(last) + 1)); c.right(x) != f.evalRight(x) || c.left(x) != f.evalLeft(x) {
			t.Fatalf("trial %d: backward query at %d disagrees", trial, x)
		}
	}
}
