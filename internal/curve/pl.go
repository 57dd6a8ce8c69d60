package curve

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// pl is the internal, unrestricted piecewise-linear representation used to
// build curves. Unlike the exported Curve it may be non-monotone and may
// jump downwards, which is required for intermediate quantities such as the
// non-preemptive availability function B of Theorem 5 (which drops by the
// blocking time) and the difference c(s)-A(s) whose running minimum drives
// every service transform.
//
// Representation invariants (checked by check()):
//   - pts is non-empty and pts[0].X == 0;
//   - pts is sorted by X; at most two points share an X (a jump);
//   - between consecutive points with distinct X the function is linear
//     and the slope (Y2-Y1)/(X2-X1) is an integer;
//   - tail is the slope after the last point.
//
// Evaluation is right-continuous; evalLeft gives left limits. Both
// binary-search for their query time; a sweep whose query times never
// decrease reads through an evalCursor in amortized O(1) per query.
//
// Most constructors take an optional *Scratch (nil = heap): a non-nil
// scratch marks the result as an intermediate whose breakpoints live in
// the arena and die at the next Reset. Final results — everything wrapped
// into an exported Curve — are built with a nil scratch, so exported
// curves never alias arena memory.
type pl struct {
	pts  []Point
	tail int64
}

// constPL returns the constant function v.
func constPL(v Value) pl { return pl{pts: []Point{{0, v}}, tail: 0} }

// linearPL returns the function f(t) = y0 + slope*t.
func linearPL(y0 Value, slope int64) pl {
	return pl{pts: []Point{{0, y0}}, tail: slope}
}

// identityPL is the shared identity function t; immutable, so hot paths
// can use it without allocating a fresh linearPL(0, 1).
var identityPL = linearPL(0, 1)

// check panics if the representation invariants are violated. It is cheap
// (linear) and called by the exported Validate helpers and in tests.
func (f pl) check() {
	if len(f.pts) == 0 {
		panic("curve: empty point list")
	}
	if f.pts[0].X != 0 {
		panic(fmt.Sprintf("curve: first breakpoint at x=%d, want 0", f.pts[0].X))
	}
	atX := 1
	for i := 1; i < len(f.pts); i++ {
		p, q := f.pts[i-1], f.pts[i]
		switch {
		case q.X < p.X:
			panic(fmt.Sprintf("curve: breakpoints out of order at %d: %v after %v", i, q, p))
		case q.X == p.X:
			atX++
			if atX > 2 {
				panic(fmt.Sprintf("curve: more than two breakpoints at x=%d", q.X))
			}
		default:
			atX = 1
			if (q.Y-p.Y)%(q.X-p.X) != 0 {
				panic(fmt.Sprintf("curve: non-integer slope between %v and %v", p, q))
			}
		}
	}
}

// lastIdxAtOrBefore returns the index of the last point with X <= t, or -1
// if t precedes every point (impossible for canonical curves, which start
// at X=0, when t >= 0).
func (f pl) lastIdxAtOrBefore(t Time) int {
	// sort.Search finds the first index with X > t.
	i := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].X > t })
	return i - 1
}

// evalRight returns f(t) (right-continuous value). t must be >= 0. It
// binary-searches for t; sweeps whose query times never decrease use an
// evalCursor instead.
func (f pl) evalRight(t Time) Value {
	i := f.lastIdxAtOrBefore(t)
	if i < 0 {
		panic(fmt.Sprintf("curve: evalRight(%d) before domain start", t))
	}
	return f.rightAt(i, t)
}

// evalLeft returns the left limit lim_{s -> t-} f(s). For t == 0 it returns
// f(0) as there is nothing to the left of the domain.
func (f pl) evalLeft(t Time) Value {
	if t <= 0 {
		return f.evalRight(0)
	}
	return f.leftAt(f.lastIdxAtOrBefore(t), t)
}

// rightAt returns f(t) given i, the index of the last point with X <= t:
// the segment leaving pts[i] (or the tail past the last point) holds t.
func (f pl) rightAt(i int, t Time) Value {
	p := f.pts[i]
	if i+1 < len(f.pts) {
		q := f.pts[i+1]
		return p.Y + (q.Y-p.Y)/(q.X-p.X)*(t-p.X)
	}
	return p.Y + f.tail*(t-p.X)
}

// leftAt returns the left limit at t > 0 given i, the index of the last
// point with X <= t.
func (f pl) leftAt(i int, t Time) Value {
	if p := f.pts[i]; p.X == t {
		// Use the first point at X == t: it carries the left limit.
		if i > 0 && f.pts[i-1].X == t {
			return f.pts[i-1].Y
		}
		return p.Y
	}
	return f.rightAt(i, t)
}

// evalCursor evaluates f at a non-decreasing sequence of query times in
// amortized O(1) per query, the point-evaluation sibling of inverseCursor:
// the index of the last breakpoint at or before the query only moves
// forward, so a sweep of n queries costs O(n + breakpoints) instead of a
// binary search per query. right and left have exactly the semantics of
// evalRight and evalLeft, and may be mixed at the same time. A query
// earlier than the previous one is still answered exactly, by restarting
// with a binary search; the package's sweeps never issue one.
type evalCursor struct {
	f pl
	i int // index of the last breakpoint at or before the previous query
}

// seek moves the cursor to the last breakpoint at or before t.
func (c *evalCursor) seek(t Time) {
	if t < c.f.pts[c.i].X {
		if c.i = c.f.lastIdxAtOrBefore(t); c.i < 0 {
			panic(fmt.Sprintf("curve: evalRight(%d) before domain start", t))
		}
	}
	for c.i+1 < len(c.f.pts) && c.f.pts[c.i+1].X <= t {
		c.i++
	}
}

// right returns f(t), like evalRight.
func (c *evalCursor) right(t Time) Value {
	c.seek(t)
	return c.f.rightAt(c.i, t)
}

// left returns the left limit of f at t, like evalLeft.
func (c *evalCursor) left(t Time) Value {
	if t <= 0 {
		return c.right(0)
	}
	c.seek(t)
	return c.f.leftAt(c.i, t)
}

// xMerge walks the sorted union of the breakpoint X coordinates of two
// pls, each distinct X once, without materializing the merged list.
type xMerge struct {
	a, b []Point
	i, j int
}

// next returns the next X of the union, or ok=false when both lists are
// exhausted.
func (m *xMerge) next() (x Time, ok bool) {
	if m.i == len(m.a) && m.j == len(m.b) {
		return 0, false
	}
	x = Inf
	if m.i < len(m.a) {
		x = m.a[m.i].X
	}
	if m.j < len(m.b) && m.b[m.j].X < x {
		x = m.b[m.j].X
	}
	for m.i < len(m.a) && m.a[m.i].X == x {
		m.i++
	}
	for m.j < len(m.b) && m.b[m.j].X == x {
		m.j++
	}
	return x, true
}

// Canonical form. A pl is canonical when its breakpoints are exactly the
// point at x = 0, the (left limit, value) pair at every jump, and the
// points where the segment slope changes; a zero jump, a repeated point or
// a point collinear with its neighbours (or, last, with the tail) never
// appears. Canonical representations are unique: any two build paths of
// the same mathematical function produce identical point lists. The
// engines rely on this to keep results bit-identical across algebraically
// equivalent groupings (e.g. the memoized prefix interference sums versus
// the per-subjob k-way sums).
//
// The kernels emit canonical points directly: the sums and running minima
// know the slope at every position (see sumIn and runMin), and
// the remaining kernels stream their candidate points through pushCanon.
// Either way the points are built in a buffer and copied out exact-size by
// emitPL, so no result carries slack capacity.

// pushCanon appends p, which must not lie left of the last point of out,
// and keeps out canonical: a further point at the last X keeps the run's
// first and newest points (one point if they coincide), and a point at a
// new X first drops the points that became collinear. out is never longer
// than the number of points pushed, so pushing a list onto its own prefix
// canonicalizes it in place.
func pushCanon(out []Point, p Point) []Point {
	n := len(out)
	if n > 0 && out[n-1].X == p.X {
		switch {
		case n > 1 && out[n-2].X == p.X:
			if out[n-2].Y == p.Y {
				return out[:n-1]
			}
			out[n-1] = p
		case out[n-1].Y != p.Y:
			out = append(out, p)
		}
		return out
	}
	for ; n >= 2; n-- {
		a, b := out[n-2], out[n-1]
		// b is redundant if (a,b) and (b,p) have equal slope.
		if a.X == b.X || (b.Y-a.Y)*(p.X-b.X) != (p.Y-b.Y)*(b.X-a.X) {
			break
		}
	}
	return append(out[:n], p)
}

// emitPL returns the canonical points pts with tail slope tail as a pl
// whose breakpoints are an exact-size copy carved from sc (nil = heap), so
// that pts stays free for reuse. A trailing point collinear with the tail
// extension of the previous one is dropped first.
func emitPL(sc *Scratch, pts []Point, tail int64) pl {
	for n := len(pts); n >= 2; n-- {
		a, b := pts[n-2], pts[n-1]
		if a.X == b.X || b.Y-a.Y != tail*(b.X-a.X) {
			break
		}
		pts = pts[:n-1]
	}
	if sc == nil {
		out := make([]Point, len(pts))
		copy(out, pts)
		return pl{pts: out, tail: tail}
	}
	return pl{pts: append(sc.take(len(pts)), pts...), tail: tail}
}

// canonIn normalises a sorted list of points produced by an operation into
// a canonical pl with the given tail slope, in one pass that reuses the
// input buffer (which is left scribbled on). The result breakpoints are
// carved from sc (nil = an exact-size heap slice). It serves the kernels
// whose point lists are genuinely non-canonical (compositions, clamps,
// shifts); the sums, running minima and staircases emit canonical points
// directly.
func canonIn(sc *Scratch, pts []Point, tail int64) pl {
	if len(pts) == 0 {
		panic("curve: canon of empty point list")
	}
	out := pts[:0]
	for _, p := range pts {
		out = pushCanon(out, p)
	}
	return emitPL(sc, out, tail)
}

// sumCursor walks one summand of a signed sum left to right. i is the
// index of the last breakpoint at or before the sweep position, nx the
// position of the next breakpoint (Inf past the last one) and slope the
// segment slope immediately right of i (past any jump there). sign is +1
// for added summands and -1 for subtracted ones: subtraction rides the
// same merge instead of materializing a negated copy of every subtrahend,
// which used to be the single largest allocation source of the whole
// analysis (the interference sums negate one curve per higher-priority
// neighbor).
type sumCursor struct {
	pts   []Point
	tail  int64
	i     int
	nx    Time
	slope int64
	sign  int64
}

// settle sets nx and the signed slope for the breakpoint at i, which must
// be the last one at its X, so the next point (if any) is at a strictly
// larger X.
func (c *sumCursor) settle() {
	if c.i+1 == len(c.pts) {
		c.nx, c.slope = Inf, c.sign*c.tail
		return
	}
	p, q := c.pts[c.i], c.pts[c.i+1]
	c.nx = q.X
	c.slope = c.sign * (q.Y - p.Y) / (q.X - p.X)
}

// step is the cursor step shared by every sum kernel: it moves the cursor
// past its breakpoints at nx and returns the signed jump there and the
// change of its signed slope. The first point at nx carries the left
// limit, the last one the value.
func (c *sumCursor) step() (jump Value, dslope int64) {
	x, old := c.nx, c.slope
	c.i++
	left := c.pts[c.i].Y
	for c.i+1 < len(c.pts) && c.pts[c.i+1].X == x {
		c.i++
	}
	c.settle()
	return c.sign * (c.pts[c.i].Y - left), c.slope - old
}

// sumSweep is the signed k-way merge behind sumIn and sumRunningMin: one
// left-to-right walk over the union of the summands' breakpoints that
// keeps the summed value and slope incrementally. Between two positions
// every summand is linear, so the left limit at a position is the linear
// extension of the running sum, and each summand breaking there adds its
// own jump and slope change. Its buffers are pooled: the interference sums
// run once per priority-prefix link and per service transform, so they
// are the hottest allocation of the analysis.
type sumSweep struct {
	cs    []sumCursor
	pts   []Point // output build buffer, copied out exact-size by emitPL
	x     Time    // last visited position
	val   Value   // the sum just right of x
	slope int64   // the summed slope just right of x; the tail at the end
}

var sumPool = sync.Pool{New: func() any { return new(sumSweep) }}

// getSumSweep checks out a sweep positioned at x = 0 over
// y0 + slope*t + sum(plus) - sum(minus), with an empty build buffer.
func getSumSweep(y0 Value, slope int64, plus, minus []pl) *sumSweep {
	s := sumPool.Get().(*sumSweep)
	s.x, s.val, s.slope = 0, y0, slope
	for k, fs := range [2][]pl{plus, minus} {
		sign := int64(1 - 2*k) // +1 for plus, -1 for minus
		for _, f := range fs {
			c := sumCursor{pts: f.pts, tail: f.tail, sign: sign}
			for c.i+1 < len(c.pts) && c.pts[c.i+1].X == 0 {
				c.i++ // start from the post-jump value at x = 0
			}
			c.settle()
			s.val += sign * c.pts[c.i].Y
			s.slope += c.slope
			s.cs = append(s.cs, c)
		}
	}
	return s
}

// put returns the sweep to the pool, dropping its summand references so
// the pool pins nothing.
func (s *sumSweep) put() {
	for i := range s.cs {
		s.cs[i] = sumCursor{}
	}
	s.cs, s.pts = s.cs[:0], s.pts[:0]
	sumPool.Put(s)
}

// next advances to the next breakpoint position x of any summand. It
// returns the sum's left limit there and the change of the summed slope;
// afterwards s.val is the value at x and s.slope the slope right of it.
// ok is false once every summand is exhausted; s.slope is then the tail.
func (s *sumSweep) next() (x Time, left Value, dslope int64, ok bool) {
	x = Inf
	for n := range s.cs {
		x = min(x, s.cs[n].nx)
	}
	if x == Inf {
		return x, 0, 0, false
	}
	left = s.val + s.slope*(x-s.x)
	s.x, s.val = x, left
	for n := range s.cs {
		if c := &s.cs[n]; c.nx == x {
			j, d := c.step()
			s.val += j
			dslope += d
		}
	}
	s.slope += dslope
	return x, left, dslope, true
}

// sumIn returns y0 + slope*t + sum(plus) - sum(minus) in a single signed
// merge (sumSweep). This is the engine behind the binary add and sub, the
// exported Sum, the residual chain and every availability/interference
// combination (linearSubSum). Points are emitted canonical: sweep
// positions strictly increase and carry no zero jump, so a jump emits its
// (left limit, value) pair, any other position emits a point only where
// the summed slope changes there, and the tail is the final summed slope,
// so no collinear point is ever written. The result breakpoints are
// carved from sc (nil = an exact-size heap slice).
func sumIn(sc *Scratch, y0 Value, slope int64, plus, minus []pl) pl {
	if len(plus)+len(minus) == 0 {
		return linearPL(y0, slope)
	}
	s := getSumSweep(y0, slope, plus, minus)
	// A position emits at most as many points as summand breakpoints it
	// passes (a jump pair needs a summand jump), plus the origin.
	n := 1
	for _, c := range s.cs {
		n += len(c.pts)
	}
	pts := append(slices.Grow(s.pts, n), Point{0, s.val})
	for {
		x, l, ds, ok := s.next()
		if !ok {
			break
		}
		if l != s.val {
			pts = append(pts, Point{x, l}, Point{x, s.val})
		} else if ds != 0 {
			pts = append(pts, Point{x, l})
		}
	}
	out := emitPL(sc, pts, s.slope)
	s.pts = pts
	s.put()
	return out
}

// sumRunningMin returns h(t) = min(seed, inf_{0<=s<=t} F(s)) for
// F = y0 + slope*t + sum(plus) - sum(minus), the running-minimum transform
// (runMin) fed straight from sumIn's signed merge: the summed curve is
// never materialized, and the output carries only the breakpoints where
// the minimum actually moves — typically a handful next to the
// interference sums the service transforms feed in. The result is carved
// from sc (nil = an exact-size heap slice) and bit-identical to
// materializing the sum and running runningMinSeeded over it (both emit
// the canonical form of the same function).
func sumRunningMin(sc *Scratch, y0 Value, slope int64, plus, minus []pl, seed Value) pl {
	s := getSumSweep(y0, slope, plus, minus)
	h := newRunMin(s.pts, min(seed, s.val))
	for {
		x0, v0 := s.x, s.val
		x, l, _, ok := s.next()
		if !ok {
			break
		}
		h.to(x0, v0, x, l, s.val)
	}
	out := emitPL(sc, h.pts, h.end(s.x, s.val, s.slope))
	s.pts = h.pts
	s.put()
	return out
}

// runningMinSeeded returns h(t) = min(seed, inf_{0<=s<=t} f(s)), fed to
// runMin one breakpoint position of f at a time. The result is carved
// from sc (nil = an exact-size heap slice).
func (f pl) runningMinSeeded(sc *Scratch, seed Value) pl {
	// A pre-jump marker at x = 0 is not a function value (the domain
	// starts at 0 and evaluation is right-continuous); start from the
	// post-jump value.
	i := 0
	if len(f.pts) > 1 && f.pts[1].X == 0 {
		i = 1
	}
	// The canonical output has at most a crossing and an end point per
	// input breakpoint, plus the origin and a tail crossing.
	h := newRunMin(sc.take(2*len(f.pts)+2), min(seed, f.pts[i].Y))
	for i+1 < len(f.pts) {
		q := f.pts[i]
		i++
		l := f.pts[i].Y // the first point at an X carries the left limit
		for i+1 < len(f.pts) && f.pts[i+1].X == f.pts[i].X {
			i++
		}
		h.to(q.X, q.Y, f.pts[i].X, l, f.pts[i].Y)
	}
	return emitPL(sc, h.pts, h.end(f.pts[i].X, f.pts[i].Y, f.tail))
}

// runMin builds h(t) = min(seed, inf_{0<=s<=t} F(s)) as F is fed to it
// left to right, one linear stretch at a time. The infimum accounts for
// left limits at downward jumps (the infimum over a closed interval of a
// right-continuous function). Where F dips below the minimum its slope
// must be -1, which keeps every crossing on the integer grid; rising
// slopes are unrestricted. h is then a sequence of pieces of slope 0 or
// -1 separated by downward jumps, and runMin emits its canonical
// breakpoints directly: a piece opens a point only where its slope
// differs from the previous piece's, and a jump emits its pair.
type runMin struct {
	pts   []Point
	cur   Value // h at the last position fed
	slope int64 // slope of the piece the last point opened (1 = none yet)
}

// newRunMin starts h at (0, h0), building into buf.
func newRunMin(buf []Point, h0 Value) runMin {
	return runMin{pts: append(buf[:0], Point{0, h0}), cur: h0, slope: 1}
}

// to feeds the stretch of F that leaves (x0, v0), is linear up to x > x0
// and has left limit l and value r at x.
func (h *runMin) to(x0 Time, v0 Value, x Time, l, r Value) {
	if l < h.cur {
		// F dips below the minimum, on a slope that v0 >= cur makes
		// negative and the integer grid needs to be -1.
		if (l-v0)/(x-x0) < -1 {
			panic("curve: runningMin: slope below -1 unsupported")
		}
		h.dip(x0, v0)
		h.cur = l
	} else {
		h.piece(x0, 0)
	}
	if r < h.cur {
		// Downward jump below the minimum at x.
		h.pts = append(h.pts, Point{x, h.cur}, Point{x, r})
		h.cur = r
	}
}

// end feeds the tail of F, which leaves (x0, v0) with slope tail, and
// returns the tail slope of h.
func (h *runMin) end(x0 Time, v0 Value, tail int64) int64 {
	if tail >= 0 {
		h.piece(x0, 0)
		return 0
	}
	if tail < -1 {
		panic("curve: runningMin: tail slope below -1 unsupported")
	}
	h.dip(x0, v0)
	return -1
}

// dip continues h from x0, where F = v0 >= cur falls at slope -1: flat
// at cur until F reaches it, then following F down.
func (h *runMin) dip(x0 Time, v0 Value) {
	if xc := x0 + (v0 - h.cur); xc > x0 {
		h.piece(x0, 0)
		h.piece(xc, -1)
	} else {
		h.piece(x0, -1)
	}
}

// piece continues h from (x, cur) with slope s. The point is a breakpoint
// only where the slope changes, and is skipped when it is already the
// last point (the origin, or the value after a jump).
func (h *runMin) piece(x Time, s int64) {
	if s != h.slope && h.pts[len(h.pts)-1] != (Point{x, h.cur}) {
		h.pts = append(h.pts, Point{x, h.cur})
	}
	h.slope = s
}

// shiftFlat returns F'(y) = F(max(y-b, 0)) for b >= 0: F delayed by b
// with a flat prefix at F(0). It folds a constant blocking offset into
// the small outer curve of a composition instead of shifting (and
// copying) the large inner one: F(max(A(t)-b, 0)) == F'(max(A(t), 0))
// pointwise, so callers can share one clamped availability across
// subjobs with different blocking terms.
func (f pl) shiftFlat(sc *Scratch, b Value) pl {
	out := sc.take(len(f.pts) + 1)
	out = append(out, Point{0, f.pts[0].Y})
	for _, p := range f.pts {
		out = append(out, Point{p.X + b, p.Y})
	}
	return canonIn(sc, out, f.tail)
}

// add returns f + g by a two-pointer linear merge.
func (f pl) add(g pl) pl { return f.addIn(nil, g) }

// addIn is add with the result carved from sc (nil = heap).
func (f pl) addIn(sc *Scratch, g pl) pl {
	return sumIn(sc, 0, 0, []pl{f, g}, nil)
}

// negIn is neg with the result carved from sc (nil = heap).
func (f pl) negIn(sc *Scratch) pl {
	pts := sc.take(len(f.pts))
	for _, p := range f.pts {
		pts = append(pts, Point{p.X, -p.Y})
	}
	return pl{pts: pts, tail: -f.tail}
}

// sub returns f - g.
func (f pl) sub(g pl) pl { return f.subIn(nil, g) }

// subIn is sub with the result carved from sc (nil = heap). The
// subtrahend is merged with a negative sign instead of materializing -g.
func (f pl) subIn(sc *Scratch, g pl) pl {
	return sumIn(sc, 0, 0, []pl{f}, []pl{g})
}

// addConst returns f + v with the result carved from sc (nil = heap).
func (f pl) addConst(sc *Scratch, v Value) pl {
	pts := sc.take(len(f.pts))
	for _, p := range f.pts {
		pts = append(pts, Point{p.X, p.Y + v})
	}
	return pl{pts: pts, tail: f.tail}
}

// heap returns f backed by an exact-size heap slice. It is the copy-out
// step for final results built in an arena: canonical points are copied
// verbatim, so the canonical representation (and bit-identity) is
// preserved. With a nil sc the points are already heap-backed and f is
// returned unchanged.
func (f pl) heap(sc *Scratch) pl {
	if sc == nil {
		return f
	}
	pts := make([]Point, len(f.pts))
	copy(pts, f.pts)
	return pl{pts: pts, tail: f.tail}
}

// runningMaxIn returns h with h(t) = sup_{0 <= s <= t} f(s), accounting
// for left limits at downward jumps, with intermediates and result carved
// from sc (nil = heap). Segment slopes must lie in {-1, 0, 1}. The result
// has slopes in {0, 1} and is used to make sound lower service bounds
// monotone (a running maximum of a lower bound on a non-decreasing
// function is still a lower bound). An already non-decreasing f is its
// own running maximum and is returned as-is (shared, copy-on-write style):
// the interference terms of lightly loaded processors are usually already
// monotone, and skipping the rebuild skips the largest buffer of the
// transform.
func (f pl) runningMaxIn(sc *Scratch) pl {
	if f.isNonDecreasing() {
		return f
	}
	return f.negIn(sc).runningMinSeeded(sc, -f.evalRight(0)).negIn(sc)
}

// clampMin returns max(f, v) pointwise. Upward crossings must happen on
// segments of slope +1 or at breakpoints/jumps for exactness; slopes must
// lie in {-1, 0, 1}.
func (f pl) clampMin(v Value) pl { return f.clampMinIn(nil, v) }

// clampMinIn is clampMin with intermediates and result carved from sc.
// A function already at or above v everywhere is returned as-is.
func (f pl) clampMinIn(sc *Scratch, v Value) pl {
	if f.tail >= 0 && f.min() >= v {
		return f
	}
	return f.negIn(sc).clampMaxIn(sc, -v).negIn(sc)
}

// min returns the smallest breakpoint value (the function minimum when the
// tail is non-negative, since segments are linear between breakpoints).
func (f pl) min() Value {
	m := f.pts[0].Y
	for _, p := range f.pts[1:] {
		if p.Y < m {
			m = p.Y
		}
	}
	return m
}

// clampMax returns min(f, v) pointwise.
func (f pl) clampMax(v Value) pl { return f.clampMaxIn(nil, v) }

// clampMaxIn is clampMax with the result carved from sc (nil = heap).
func (f pl) clampMaxIn(sc *Scratch, v Value) pl {
	// Worst case every segment contributes a crossing point on top of its
	// endpoint, plus one tail crossing.
	out := sc.take(2*len(f.pts) + 1)
	clip := func(y Value) Value {
		if y > v {
			return v
		}
		return y
	}
	out = append(out, Point{0, clip(f.pts[0].Y)})
	// Walk segments between consecutive sweep points, inserting crossing
	// breakpoints where the function passes through v.
	for i := 1; i < len(f.pts); i++ {
		q := f.pts[i]
		p := f.pts[i-1]
		if q.X > p.X && ((p.Y < v && q.Y > v) || (p.Y > v && q.Y < v)) {
			slope := (q.Y - p.Y) / (q.X - p.X)
			if slope > 1 || slope < -1 {
				panic("curve: clamp: slope outside {-1,0,1}")
			}
			// Strict crossing inside the segment.
			out = append(out, Point{p.X + (v-p.Y)/slope, v})
		}
		out = append(out, Point{q.X, clip(q.Y)})
	}
	last := f.pts[len(f.pts)-1]
	tail := f.tail
	switch {
	case tail > 0 && last.Y >= v:
		tail = 0
	case tail > 0 && last.Y < v:
		// Tail will hit the cap later; add the crossing then go flat.
		if tail > 1 {
			panic("curve: clamp: tail slope above 1")
		}
		out = append(out, Point{last.X + (v-last.Y)/tail, v})
		tail = 0
	case tail < 0 && last.Y > v:
		// f re-enters the clamped region later: stay at v until then.
		if tail < -1 {
			panic("curve: clamp: tail slope below -1")
		}
		out = append(out, Point{last.X + (v-last.Y)/tail, v})
	}
	return canonIn(sc, out, tail)
}

// minLower returns a piecewise-linear integer function h with
// h <= min(f, g) pointwise and h equal to min(f, g) everywhere except
// possibly inside unit intervals containing a fractional crossing of f and
// g, where h is the chord between the exact integer-grid values (the chord
// of a concave piece lies below it, so the result stays a sound *lower*
// bound). It is used to cap lower service bounds by the arrived workload.
func (f pl) minLower(g pl) pl { return f.minLowerIn(nil, g) }

// minLowerIn is minLower with intermediates and result carved from sc
// (nil = an exact-size heap slice). One two-pointer walk over the union
// of both breakpoint lists drives two evaluation cursors, samples are
// streamed against the previous one instead of materialized, and every
// output point goes through pushCanon as it is emitted, so the only
// buffer is the one the result is built in.
func (f pl) minLowerIn(sc *Scratch, g pl) pl {
	type sample struct {
		x      Time
		fy, gy Value
	}
	min2 := func(a, b Value) Value {
		if a < b {
			return a
		}
		return b
	}
	// An X yields two samples (left limit + right value) only at a jump,
	// which takes two breakpoints at that X, so there are at most
	// len(f.pts)+len(g.pts) samples. Each pushes itself plus at most two
	// crossing points, and the diverging-tail fixup after the loop at most
	// two more.
	out := sc.take(3*(len(f.pts)+len(g.pts)) + 2)
	var prev sample
	havePrev := false
	process := func(s sample) {
		if havePrev && s.x > prev.x {
			// Insert crossing breakpoints where f-g changes sign strictly
			// inside the segment.
			p := prev
			d1, d2 := p.fy-p.gy, s.fy-s.gy
			if (d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0) {
				dx := s.x - p.x
				sf := (s.fy - p.fy) / dx
				sg := (s.gy - p.gy) / dx
				num, den := p.gy-p.fy, sf-sg
				// x* = p.x + num/den with den != 0 by sign change.
				if num%den == 0 {
					x := p.x + num/den
					out = pushCanon(out, Point{x, p.fy + sf*(x-p.x)})
				} else {
					// Fractional crossing: bracket it with the exact
					// values at the neighbouring integer grid points.
					x := p.x + num/den // floor or toward-zero; num,den same sign
					if x > p.x {
						out = pushCanon(out, Point{x, min2(p.fy+sf*(x-p.x), p.gy+sg*(x-p.x))})
					}
					if x+1 < s.x {
						out = pushCanon(out, Point{x + 1, min2(p.fy+sf*(x+1-p.x), p.gy+sg*(x+1-p.x))})
					}
				}
			}
		}
		out = pushCanon(out, Point{s.x, min2(s.fy, s.gy)})
		prev, havePrev = s, true
	}
	// Expand jumps: at a jump of either function emit a left-limit sample
	// followed by a right-value sample.
	xs := xMerge{a: f.pts, b: g.pts}
	fc, gc := evalCursor{f: f}, evalCursor{f: g}
	for x, ok := xs.next(); ok; x, ok = xs.next() {
		fl, fr := fc.left(x), fc.right(x)
		gl, gr := gc.left(x), gc.right(x)
		if x > 0 && (fl != fr || gl != gr) {
			process(sample{x, fl, gl})
		}
		process(sample{x, fr, gr})
	}
	tail := f.tail
	if g.tail < tail {
		tail = g.tail
	}
	// If the tails diverge, the function with the smaller tail eventually
	// wins; add breakpoints around the tail crossing so the min is decided.
	last := prev
	if f.tail != g.tail {
		num := last.gy - last.fy
		den := f.tail - g.tail
		if (num > 0 && den > 0) || (num < 0 && den < 0) {
			// Crossing strictly after the last sample at offset num/den.
			k := num / den // exact or floor (num, den share sign)
			at := func(k Value) Point {
				return Point{last.x + k, min2(last.fy+f.tail*k, last.gy+g.tail*k)}
			}
			if num%den == 0 {
				out = pushCanon(out, at(k))
			} else {
				if k > 0 {
					out = pushCanon(out, at(k))
				}
				out = pushCanon(out, at(k+1))
			}
		}
	}
	return emitPL(sc, out, tail)
}

// composeMonotone returns f(g(t)) for non-decreasing f and g with segment
// slopes in {0,1} and g continuous. Breakpoints of the result are g's
// breakpoints plus the preimages of f's breakpoints, all integers because
// g crosses integer levels on unit-slope segments at integer times. The
// result is carved from sc (nil = heap).
func composeMonotone(sc *Scratch, f, g pl) pl {
	// Candidate times: g's breakpoints and min{t : g(t) >= y} for every
	// breakpoint level y of f within g's range. Both streams are already
	// sorted (g's breakpoints by the pl invariant, the preimages because f's
	// levels increase and g's inverse is monotone), so the preimages come
	// from one forward inverse cursor and the streams merge with two
	// pointers instead of a sort. The candidate buffer aliases point slots
	// of the arena (X coordinates only).
	tbuf := sc.take(len(f.pts))
	inv := inverseCursor{f: g}
	for _, p := range f.pts {
		// f changes slope at domain position p.X; include its preimage.
		if t, ok := inv.reach(p.X); ok {
			tbuf = append(tbuf, Point{X: t})
		}
	}
	// Candidate times increase and g is non-decreasing, so both the inner
	// and the outer evaluation run on forward cursors.
	pts := sc.take(len(g.pts) + len(tbuf) + 1)
	fc, gc := evalCursor{f: f}, evalCursor{f: g}
	var last Time = -1
	i, j := 0, 0
	for i < len(g.pts) || j < len(tbuf) {
		var t Time
		if j >= len(tbuf) || (i < len(g.pts) && g.pts[i].X <= tbuf[j].X) {
			t = g.pts[i].X
			i++
		} else {
			t = tbuf[j].X
			j++
		}
		if t == last {
			continue
		}
		last = t
		pts = append(pts, Point{t, fc.right(gc.right(t))})
	}
	// The merge always seeds t = 0: g's first breakpoint sits at x = 0 by
	// the pl representation invariant.
	// Tail: if g goes flat the composition does too; otherwise g grows at
	// unit rate past every f breakpoint preimage (all were candidates), so
	// f's tail slope applies.
	tail := int64(0)
	if g.tail != 0 {
		tail = f.tail
	}
	return canonIn(sc, pts, tail)
}

// isNonDecreasing reports whether f never decreases.
func (f pl) isNonDecreasing() bool {
	for i := 1; i < len(f.pts); i++ {
		if f.pts[i].Y < f.pts[i-1].Y {
			return false
		}
	}
	return f.tail >= 0
}

// slopesWithin reports whether every segment slope (and the tail) lies in
// [lo, hi]. Jumps are not slopes and are ignored.
func (f pl) slopesWithin(lo, hi int64) bool {
	for i := 1; i < len(f.pts); i++ {
		p, q := f.pts[i-1], f.pts[i]
		if q.X == p.X {
			continue
		}
		s := (q.Y - p.Y) / (q.X - p.X)
		if s < lo || s > hi {
			return false
		}
	}
	return f.tail >= lo && f.tail <= hi
}
