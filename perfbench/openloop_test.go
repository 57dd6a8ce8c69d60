package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := schedule(7, 3, 50, 4, 2*time.Second)
	b := schedule(7, 3, 50, 4, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := schedule(8, 3, 50, 4, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Due < a[i-1].Due {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
	if n := len(a); n < 150 || n > 450 {
		t.Errorf("%d arrivals, want about 300 (3 streams x 50/s x 2s)", n)
	}
}

// The gaps keep the configured mean and coefficient of variation.
func TestScheduleGapMoments(t *testing.T) {
	a := schedule(3, 1, 500, 4, 40*time.Second)
	if n := len(a); n < 19000 || n > 20001 {
		t.Fatalf("%d arrivals in 40s at 500/s", n)
	}
	var sum, sq float64
	prev := time.Duration(0)
	for _, x := range a {
		g := (x.Due - prev).Seconds()
		prev = x.Due
		sum += g
		sq += g * g
	}
	n := float64(len(a))
	mean := sum / n
	cv := math.Sqrt(sq/n-mean*mean) / mean
	if math.Abs(mean-1.0/500) > 0.0001 {
		t.Errorf("mean gap %v, want %v", mean, 1.0/500)
	}
	if cv < 3.5 || cv > 4.5 {
		t.Errorf("gap cv %v, want about 4", cv)
	}
}

func TestGammaQuantileInvertsCDF(t *testing.T) {
	for _, a := range []float64{1.0 / 16, 0.5, 1, 3} {
		for _, u := range []float64{1e-6, 0.01, 0.3, 0.5, 0.9, 0.999} {
			x := gammaQuantile(a, u)
			if got := gammaP(a, x); math.Abs(got-u) > 1e-9 {
				t.Errorf("P(%v, Q(%v)) = %v", a, u, got)
			}
		}
	}
	// Shape 1 is the exponential distribution.
	if got, want := gammaP(1, 2), 1-math.Exp(-2); math.Abs(got-want) > 1e-12 {
		t.Errorf("P(1,2) = %v, want %v", got, want)
	}
}

// A request queued behind a slow one on its connection is charged the
// wait: latency runs from its due time, not from when it was sent.
func TestLatenessCountsTowardLatency(t *testing.T) {
	const work = 30 * time.Millisecond
	arrivals := []arrival{{Due: 0, Stream: 0}, {Due: time.Millisecond, Stream: 0}, {Due: 2 * time.Millisecond, Stream: 1}}
	var sendAt [3]time.Duration
	start := time.Now()
	out, late := runOpenLoop(arrivals, 2, time.Second, func(conn int, a arrival) (opKind, error) {
		for i := range arrivals {
			if arrivals[i] == a {
				sendAt[i] = time.Since(start)
			}
		}
		time.Sleep(work)
		return opAdmit, nil
	})
	if len(late) != 3 {
		t.Fatalf("lateness for %d arrivals", len(late))
	}
	if out[0].Latency < work {
		t.Errorf("first request latency %v < its service time", out[0].Latency)
	}
	// The second was due at 1ms but could only be sent after the first
	// finished: its latency includes that wait.
	if sendAt[1] < work {
		t.Errorf("second request sent at %v, before the first finished", sendAt[1])
	}
	if out[1].Latency < 2*work-time.Millisecond {
		t.Errorf("queued request latency %v, want >= %v", out[1].Latency, 2*work-time.Millisecond)
	}
	// The third is on the other connection and does not wait.
	if out[2].Latency > out[1].Latency-work/2 {
		t.Errorf("request on the idle connection latency %v, not below the queued one %v", out[2].Latency, out[1].Latency)
	}
}

func TestDrainDropsLateRequests(t *testing.T) {
	arrivals := []arrival{{Due: 0}, {Due: 0}, {Due: 0}}
	out, _ := runOpenLoop(arrivals, 1, 10*time.Millisecond, func(int, arrival) (opKind, error) {
		time.Sleep(30 * time.Millisecond)
		return opBounds, nil
	})
	if out[0].Dropped || !out[2].Dropped {
		t.Errorf("drop flags %v %v %v, want first sent and last dropped", out[0].Dropped, out[1].Dropped, out[2].Dropped)
	}
}
