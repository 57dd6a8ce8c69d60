package main

import (
	"testing"
	"time"
)

func TestSummarizeTailLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 100, 997, 1000, 1001, 4321} {
		s := make([]time.Duration, n)
		for i := range s {
			// Reverse order: summarize must sort.
			s[i] = time.Duration(n-i) * time.Millisecond
		}
		got, err := summarize(s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		above := 0
		for _, x := range s {
			if ms(x) > got.Tail {
				above++
			}
		}
		if above != beyond {
			t.Errorf("n=%d: %d samples above the tail %v, want %d", n, above, got.Tail, beyond)
		}
		if want := 100 * float64(n-beyond) / float64(n); got.TailPc != want {
			t.Errorf("n=%d: tail percentile %v, want %v", n, got.TailPc, want)
		}
		if want := float64((n + 1) / 2); got.P50 != want {
			t.Errorf("n=%d: p50 %v, want %v", n, got.P50, want)
		}
	}
}

func TestSummarizeNeedsMoreThanBeyond(t *testing.T) {
	if _, err := summarize(make([]time.Duration, beyond)); err == nil {
		t.Fatal("want an error with only beyond samples")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 2}, 2}, {[]float64{4, 1, 2, 3}, 2.5}}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
