package curve

// Microbenchmarks for the curve-arithmetic hot paths: two-curve addition,
// k-way summation, pseudo-inversion and completion-time extraction on
// large staircases. Run with
//
//	go test -bench . -benchmem ./internal/curve/
//
// and compare against a baseline with benchstat or by eyeballing ns/op.

import (
	"math/rand"
	"testing"
)

// benchStaircase builds a dense bursty staircase with n jumps.
func benchStaircase(n int, seed int64) *Curve {
	r := rand.New(rand.NewSource(seed))
	times := make([]Time, n)
	t := Time(0)
	for i := range times {
		if r.Intn(4) > 0 { // 25% coincident releases (bursts)
			t += Time(1 + r.Intn(9))
		}
		times[i] = t
	}
	return Staircase(times, Value(1+seed%3))
}

func BenchmarkAddLarge(b *testing.B) {
	f := benchStaircase(2000, 1)
	g := benchStaircase(2000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(g)
	}
}

func BenchmarkSum16Way(b *testing.B) {
	curves := make([]*Curve, 16)
	for i := range curves {
		curves[i] = benchStaircase(500, int64(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sum(curves...)
	}
}

// BenchmarkSum16WayRepeatedAdd is the pre-optimization shape of the same
// computation (15 pairwise merges over ever-larger intermediates), kept
// for comparison against BenchmarkSum16Way.
func BenchmarkSum16WayRepeatedAdd(b *testing.B) {
	curves := make([]*Curve, 16)
	for i := range curves {
		curves[i] = benchStaircase(500, int64(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := curves[0]
		for _, c := range curves[1:] {
			acc = acc.Add(c)
		}
	}
}

func BenchmarkInverseLarge(b *testing.B) {
	f := benchStaircase(4000, 3)
	top := f.f.pts[len(f.f.pts)-1].Y
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for y := Value(0); y <= top; y += top / 64 {
			f.Inverse(y)
		}
	}
}

func BenchmarkCompletionTimesLarge(b *testing.B) {
	f := benchStaircase(4000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CompletionTimes(2, 2000)
	}
}

// benchNPInputs builds a Theorem 5/6 scenario on the benchStaircase
// inputs: a large demand staircase and two higher-priority interferers
// whose service is the utilization of their own staircases.
func benchNPInputs() (demand *Curve, interf []*Curve) {
	return benchStaircase(2000, 1), []*Curve{
		Utilization(benchStaircase(1000, 5)),
		Utilization(benchStaircase(1000, 6)),
	}
}

// BenchmarkSubResidualChain builds the Equation (10) priority-prefix
// residual t - sum_h S_h(t) link by link over 50 higher-priority curves,
// alternating bursty workload staircases and unit-slope service curves:
// the chain a static-priority processor memoizes, and the curve kernel a
// default-policy admission decision runs most.
func BenchmarkSubResidualChain(b *testing.B) {
	curves := make([]*Curve, 50)
	for i := range curves {
		curves[i] = benchStaircase(200, int64(i+1))
		if i%2 == 1 {
			curves[i] = Utilization(curves[i])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var r *Residual
		for _, c := range curves {
			r = SubResidual(r, c)
		}
	}
}

func BenchmarkMinLowerLarge(b *testing.B) {
	f := Utilization(benchStaircase(2000, 1)).f
	g := benchStaircase(2000, 2).f
	sc := GetScratch()
	defer PutScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.minLowerIn(sc, g)
		sc.Reset()
	}
}

func BenchmarkUpperServiceNPLarge(b *testing.B) {
	demand, interf := benchNPInputs()
	sc := GetScratch()
	defer PutScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UpperServiceNPIn(sc, interf, interf, demand)
		sc.Reset()
	}
}

func BenchmarkLowerServiceNPLarge(b *testing.B) {
	demand, interf := benchNPInputs()
	sc := GetScratch()
	defer PutScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LowerServiceNPIn(sc, 3, interf, interf, demand)
		sc.Reset()
	}
}
