package curve

// The two-pass reference path of the sum kernels: a raw signed k-way merge
// that writes every sweep position, then canonOracle's collapse and
// collinearity passes. The production kernels emit canonical points
// directly (sumIn, sumRunningMin, runMin, pushCanon); canonical forms
// are unique, so they must reproduce this path point for point, which
// TestSumKernelsMatchOracle and FuzzSumKernels check.

// canon normalises a list of points into a canonical heap-backed pl.
func canon(pts []Point, tail int64) pl { return canonIn(nil, pts, tail) }

// runningMin returns h(t) = inf_{0 <= s <= t} f(s), heap-backed.
func (f pl) runningMin() pl { return f.runningMinSeeded(nil, f.evalRight(0)) }

// runningMax returns h(t) = sup_{0 <= s <= t} f(s), heap-backed.
func (f pl) runningMax() pl { return f.runningMaxIn(nil) }

// canonOracle collapses runs of equal X to (first, last), dropping zero
// jumps, then drops interior points collinear with their neighbours and a
// trailing point collinear with the tail.
func canonOracle(pts []Point, tail int64) pl {
	var col []Point
	for i := 0; i < len(pts); {
		j := i
		for j+1 < len(pts) && pts[j+1].X == pts[i].X {
			j++
		}
		if pts[i].Y != pts[j].Y && i != j {
			col = append(col, pts[i], pts[j])
		} else {
			col = append(col, pts[j])
		}
		i = j + 1
	}
	var out []Point
	for _, p := range col {
		for len(out) >= 2 {
			a, b := out[len(out)-2], out[len(out)-1]
			if a.X == b.X || b.X == p.X || (b.Y-a.Y)*(p.X-b.X) != (p.Y-b.Y)*(b.X-a.X) {
				break
			}
			out = out[:len(out)-1]
		}
		out = append(out, p)
	}
	for len(out) >= 2 {
		a, b := out[len(out)-2], out[len(out)-1]
		if a.X == b.X || b.Y-a.Y != tail*(b.X-a.X) {
			break
		}
		out = out[:len(out)-1]
	}
	return pl{pts: out, tail: tail}
}

// sumOracle returns y0 + slope*t + sum(plus) - sum(minus): every sweep
// position writes its left limit (at a jump) and value, and canonOracle
// cleans up afterwards.
func sumOracle(y0 Value, slope int64, plus, minus []pl) pl {
	type cursor struct {
		f    pl
		i    int
		sign int64
	}
	slopeAfter := func(c *cursor) int64 {
		if c.i+1 < len(c.f.pts) {
			p, q := c.f.pts[c.i], c.f.pts[c.i+1]
			return c.sign * (q.Y - p.Y) / (q.X - p.X)
		}
		return c.sign * c.f.tail
	}
	var cs []*cursor
	val, tail := y0, slope
	for k, fs := range [2][]pl{plus, minus} {
		for _, f := range fs {
			c := &cursor{f: f, sign: int64(1 - 2*k)}
			for c.i+1 < len(f.pts) && f.pts[c.i+1].X == 0 {
				c.i++
			}
			val += c.sign * f.pts[c.i].Y
			tail += c.sign * f.tail
			cs = append(cs, c)
		}
	}
	// value extends every summand linearly from its cursor to x: the left
	// limit at the next position, the value once the cursors moved past it.
	value := func(x Time) Value {
		v := y0 + slope*x
		for _, c := range cs {
			p := c.f.pts[c.i]
			v += c.sign*p.Y + slopeAfter(c)*(x-p.X)
		}
		return v
	}
	pts := []Point{{0, val}}
	for {
		next := Inf
		for _, c := range cs {
			if c.i+1 < len(c.f.pts) && c.f.pts[c.i+1].X < next {
				next = c.f.pts[c.i+1].X
			}
		}
		if next == Inf {
			break
		}
		l := value(next)
		for _, c := range cs {
			for c.i+1 < len(c.f.pts) && c.f.pts[c.i+1].X == next {
				c.i++
			}
		}
		r := value(next)
		if l != r {
			pts = append(pts, Point{next, l})
		}
		pts = append(pts, Point{next, r})
	}
	return canonOracle(pts, tail)
}

// runningMinOracle returns min(seed, inf_{0<=s<=t} f(s)) from f's
// materialized breakpoints: a dip below the running minimum emits its
// crossing and end point, a downward jump below it emits the jump, and
// canonOracle drops what did not move. It panics like runMin.
func runningMinOracle(f pl, seed Value) pl {
	start := 0
	if len(f.pts) > 1 && f.pts[1].X == 0 {
		start = 1
	}
	cur := min(seed, f.pts[start].Y)
	out := []Point{{0, cur}}
	for i := start + 1; i < len(f.pts); i++ {
		p, q := f.pts[i], f.pts[i-1]
		if p.Y >= cur {
			continue
		}
		if q.X == p.X {
			out = append(out, Point{p.X, cur}, p)
			cur = p.Y
			continue
		}
		slope := (p.Y - q.Y) / (p.X - q.X)
		if slope < -1 {
			panic("curve: runningMin: slope below -1 unsupported")
		}
		out = append(out, Point{q.X + (cur-q.Y)/slope, cur}, p)
		cur = p.Y
	}
	last := f.pts[len(f.pts)-1]
	if f.tail < 0 {
		if f.tail < -1 {
			panic("curve: runningMin: tail slope below -1 unsupported")
		}
		if last.Y > cur {
			out = append(out, Point{last.X + (cur-last.Y)/f.tail, cur})
		} else {
			out = append(out, Point{last.X, cur})
		}
		return canonOracle(out, f.tail)
	}
	out = append(out, Point{last.X, cur})
	return canonOracle(out, 0)
}

// negOracle returns -f.
func negOracle(f pl) pl {
	out := make([]Point, len(f.pts))
	for i, p := range f.pts {
		out[i] = Point{p.X, -p.Y}
	}
	return pl{pts: out, tail: -f.tail}
}

// runningMaxOracle returns -runningMin(-f), or f itself when f never
// decreases.
func runningMaxOracle(f pl) pl {
	if f.isNonDecreasing() {
		return f
	}
	nf := negOracle(f)
	return negOracle(runningMinOracle(nf, nf.evalRight(0)))
}

// isCanonical reports whether f is a fixed point of canonOracle.
func isCanonical(f pl) bool {
	g := canonOracle(append([]Point(nil), f.pts...), f.tail)
	return plEqual(f, g)
}
