package curve

// Differential tests of the canonical-on-emit kernels against the
// two-pass reference path in oracle_test.go, plus the exact-size contract
// of heap-backed results.

import (
	"math/rand"
	"reflect"
	"testing"
)

// kernelBytes feeds fuzz bytes to the generators, then zeros.
type kernelBytes []byte

func (b *kernelBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// genPL builds a valid pl from the bytes: a start value, an optional jump
// at 0, then flat, rising and falling unit-slope segments, jumps in both
// directions and repeated points (zero jumps), with tail in {-1, 0, 1}.
// monotone restricts it to the Curve class (slopes {0, 1}, upward jumps).
// Half of the lists are left raw (collinear interior points, zero jumps),
// the rest are canonicalized.
func genPL(b *kernelBytes, monotone bool) pl {
	x, y := Time(0), Value(int(b.next()%16)-8)
	if monotone {
		y = 0
	}
	pts := []Point{{x, y}}
	pair := false // the last two points share an X
	for n := int(b.next() % 12); n > 0; n-- {
		op := b.next() % 5
		if monotone && op == 2 {
			op = 0
		}
		switch {
		case op < 3 || pair:
			dx := Time(b.next()%7) + 1
			x += dx
			y += [3]Value{0, 1, -1}[op%3] * dx
			pts = append(pts, Point{x, y})
			pair = false
		case op == 3:
			dy := Value(int(b.next()%11) - 5)
			if monotone && dy < 0 {
				dy = -dy
			}
			y += dy
			pts = append(pts, Point{x, y})
			pair = true
		default:
			pts = append(pts, Point{x, y}) // a zero jump
			pair = true
		}
	}
	tail := int64(b.next()%3) - 1
	if monotone {
		tail = int64(b.next() % 2)
	}
	if monotone || b.next()%2 == 0 {
		return canonOracle(pts, tail)
	}
	return pl{pts: pts, tail: tail}
}

// catchPL runs f and returns its result or the value it panicked with.
func catchPL(f func() pl) (out pl, panicked any) {
	defer func() { panicked = recover() }()
	return f(), nil
}

// plHorizon returns an evaluation horizon past every breakpoint of fs.
func plHorizon(fs ...pl) Time {
	h := Time(0)
	for _, f := range fs {
		h = max(h, f.pts[len(f.pts)-1].X)
	}
	return h + 4
}

// checkSumKernels interprets the bytes as sum-kernel inputs and checks
// every kernel against its two-pass oracle (identical point lists) and
// the dense pointwise sum.
func checkSumKernels(t *testing.T, data []byte) {
	t.Helper()
	b := kernelBytes(data)
	// sumIn with k = 1, 2 or more summands split over plus and minus.
	k := 1 + int(b.next()%5)
	fs := make([]pl, k)
	for i := range fs {
		fs[i] = genPL(&b, false)
	}
	split := int(b.next()) % (k + 1)
	plus, minus := fs[:split], fs[split:]
	y0, slope := Value(int(b.next()%9)-4), int64(b.next()%3)-1
	got := sumIn(nil, y0, slope, plus, minus)
	want := sumOracle(y0, slope, plus, minus)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sumIn(%d, %d, %v, %v) = %v, oracle %v", y0, slope, plus, minus, got, want)
	}
	got.check()
	h := plHorizon(fs...)
	dense := densePL(got, h)
	for x := Time(0); x <= h; x++ {
		r, l := y0+slope*x, y0+slope*x
		for i, f := range fs {
			sign := Value(1)
			if i >= split {
				sign = -1
			}
			r += sign * f.evalRight(x)
			l += sign * f.evalLeft(x)
		}
		if x == 0 {
			l = r
		}
		if dense[x] != r || got.evalLeft(x) != l {
			t.Fatalf("sumIn at %d = (%d, left %d), want (%d, left %d); sum %v", x, dense[x], got.evalLeft(x), r, l, got)
		}
	}

	// sumRunningMin over the same summands: identical points, or a panic
	// on both sides (a slope below -1 where the sum dips; the fused sweep
	// may meet it on a segment the materialized sum folds into its tail).
	seed := Value(int(b.next()%9) - 4)
	gotMin, gotPanic := catchPL(func() pl { return sumRunningMin(nil, y0, slope, plus, minus, seed) })
	wantMin, wantPanic := catchPL(func() pl { return runningMinOracle(want, seed) })
	if (gotPanic == nil) != (wantPanic == nil) {
		t.Fatalf("sumRunningMin panic %v, oracle panic %v on %v", gotPanic, wantPanic, want)
	}
	if gotPanic == nil && !reflect.DeepEqual(gotMin, wantMin) {
		t.Fatalf("sumRunningMin = %v, oracle %v on %v seed %d", gotMin, wantMin, want, seed)
	}

	// runningMinSeeded and runningMaxIn on one summand against their
	// two-pass oracles.
	f := fs[0]
	gotMin, gotPanic = catchPL(func() pl { return f.runningMinSeeded(nil, seed) })
	wantMin, wantPanic = catchPL(func() pl { return runningMinOracle(f, seed) })
	if (gotPanic == nil) != (wantPanic == nil) {
		t.Fatalf("runningMinSeeded panic %v, oracle panic %v on %v", gotPanic, wantPanic, f)
	}
	if gotPanic == nil && !reflect.DeepEqual(gotMin, wantMin) {
		t.Fatalf("runningMinSeeded = %v, oracle %v on %v seed %d", gotMin, wantMin, f, seed)
	}
	gotMax, gotPanic := catchPL(func() pl { return f.runningMaxIn(nil) })
	wantMax, wantPanic := catchPL(func() pl { return runningMaxOracle(f) })
	if (gotPanic == nil) != (wantPanic == nil) {
		t.Fatalf("runningMaxIn panic %v, oracle panic %v on %v", gotPanic, wantPanic, f)
	}
	if gotPanic == nil && !reflect.DeepEqual(gotMax, wantMax) {
		t.Fatalf("runningMaxIn = %v, oracle %v on %v", gotMax, wantMax, f)
	}

	// canonIn over a sorted list with runs of up to four points at one X
	// (a composition mapping several jumps to one instant) and minLowerIn
	// emit canonical lists; minLowerIn's values are checked densely in
	// transform_test.go.
	raw := []Point{{0, Value(b.next() % 4)}}
	for n := int(b.next() % 16); n > 0; n-- {
		p := raw[len(raw)-1]
		if op := b.next() % 6; op < 3 {
			dx := Time(b.next()%4) + 1
			raw = append(raw, Point{p.X + dx, p.Y + Value(int64(op)-1)*dx})
		} else {
			raw = append(raw, Point{p.X, p.Y + Value(b.next()%5) - 2})
		}
	}
	want = canonOracle(raw, f.tail)
	if c := canonIn(nil, append([]Point(nil), raw...), f.tail); !reflect.DeepEqual(c, want) {
		t.Fatalf("canonIn(%v) = %v, oracle %v", raw, c, want)
	}
	if m := fs[0].minLowerIn(nil, fs[k-1]); !isCanonical(m) {
		t.Fatalf("minLowerIn(%v, %v) = %v is not canonical", fs[0], fs[k-1], m)
	}

	// Staircase writes its canonical points directly; the old path wrote
	// the pre-jump point of every release group and canonicalized after.
	var jumps []Time
	for n, at := int(b.next()%10), Time(0); n > 0; n-- {
		at += Time(b.next() % 4) // zero steps are coincident releases
		jumps = append(jumps, at)
	}
	height := Value(b.next()%3) + 1
	raw = []Point{{0, 0}}
	level := Value(0)
	for _, at := range jumps {
		raw = append(raw, Point{at, level})
		level += height
		raw = append(raw, Point{at, level})
	}
	if st, w := Staircase(jumps, height).f, canonOracle(raw, 0); !reflect.DeepEqual(st, w) || cap(st.pts) != len(st.pts) {
		t.Fatalf("Staircase(%v, %d) = %v (cap %d), oracle %v", jumps, height, st, cap(st.pts), w)
	}

	// A residual chain of up to 8 links over service-shaped curves: each
	// link equals the oracle's direct k-way sum t - sum_i c_i(t), with
	// slopes down to 1-k.
	var r *Residual
	var cs []pl
	for n := int(b.next()%8) + 1; n > 0; n-- {
		c := genPL(&b, true)
		cs = append(cs, c)
		r = SubResidual(r, &Curve{c})
		if want := sumOracle(0, 1, nil, cs); !reflect.DeepEqual(r.f, want) {
			t.Fatalf("residual chain link %d = %v, oracle %v", len(cs), r.f, want)
		}
	}
	h = plHorizon(cs...)
	for x, v := range densePL(r.f, h) {
		want := Value(x)
		for _, c := range cs {
			want -= c.evalRight(Time(x))
		}
		if v != want {
			t.Fatalf("residual at %d = %d, want %d", x, v, want)
		}
	}
}

// FuzzSumKernels checks sumIn (k = 1, 2 and more summands), sumRunningMin,
// runningMinSeeded, runningMaxIn, canonIn, Staircase and residual chains of up to 8 links against the
// two-pass oracle of oracle_test.go, point list for point list, and
// against dense pointwise evaluation. Run with
//
//	go test -fuzz FuzzSumKernels ./internal/curve
func FuzzSumKernels(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 200, 11, 3, 3, 3, 4, 4, 0, 1, 2, 3, 4, 7, 7, 1, 9, 9, 255, 6, 6, 6})
	f.Add([]byte{4, 7, 9, 1, 3, 0, 3, 9, 4, 2, 1, 1, 5, 3, 2, 2, 2, 1, 7, 3, 0, 4, 4, 1, 1})
	f.Fuzz(checkSumKernels)
}

// TestSumKernelsMatchOracle runs the fuzz checks over random byte strings.
func TestSumKernelsMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	data := make([]byte, 160)
	for trial := 0; trial < 3000; trial++ {
		r.Read(data)
		checkSumKernels(t, data)
	}
}

// TestNilScratchResultsExactSize: results built with a nil Scratch are
// final and may be memoized for a long time, so they carry no slack
// capacity past their breakpoints.
func TestNilScratchResultsExactSize(t *testing.T) {
	exact := func(what string, f pl) {
		t.Helper()
		if cap(f.pts) != len(f.pts) {
			t.Fatalf("%s: cap %d for %d breakpoints", what, cap(f.pts), len(f.pts))
		}
	}
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		var lo, hi *Residual
		demand, _ := randStaircase(r, 12, 150, Value(1+r.Intn(3)))
		for link := 0; link < 6; link++ {
			work, _ := randStaircase(r, 10, 150, Value(1+r.Intn(3)))
			svc := Utilization(work)
			lo = SubResidual(lo, svc)
			hi = SubResidual(hi, svc.AddConst(Value(r.Intn(3))))
			exact("SubResidual", lo.f)
			exact("SubResidual", hi.f)
			ni := NewNPInterference(lo, hi)
			for _, f := range []pl{ni.availLo, ni.availHi, ni.ahat, ni.vhat} {
				exact("NewNPInterference", f)
			}
			exact("UpperServiceNP", ni.UpperServiceNP(nil, demand).f)
			exact("LowerServiceNP", ni.LowerServiceNP(nil, 2, demand).f)
			exact("Utilization", svc.f)
			exact("Sum", Sum(demand, svc).f)
			exact("Min", demand.Min(svc).f)
			exact("Staircase", demand.f)
		}
	}
}
