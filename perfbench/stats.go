package main

import (
	"fmt"
	"sort"
	"time"
)

// beyond is the number of samples the reported tail must leave above it:
// the tail is the highest percentile that still has this many samples
// beyond it, so it is never a single outlier.
const beyond = 10

// summary is a latency sample reduced to the figures the benchmark prints.
type summary struct {
	N      int
	P50    float64 // ms
	Tail   float64 // ms
	TailPc float64 // the percentile Tail sits at, e.g. 99.2
}

// summarize reduces durations to their median and tail. The tail is the
// nearest-rank quantile at 100*(N-beyond)/N percent, i.e. the sample with
// exactly `beyond` samples ranked above it; fewer than beyond+1 samples
// have no tail and are an error.
func summarize(samples []time.Duration) (summary, error) {
	n := len(samples)
	if n <= beyond {
		return summary{N: n}, fmt.Errorf("%d samples: a tail needs more than %d", n, beyond)
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return summary{
		N:      n,
		P50:    ms(s[(n+1)/2-1]),
		Tail:   ms(s[n-beyond-1]),
		TailPc: 100 * float64(n-beyond) / float64(n),
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of float values (mean of the middle pair for even counts); 0 for
// none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianDur is median over durations, in the unit conv returns.
func medianDur(d []time.Duration, conv func(time.Duration) float64) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = conv(x)
	}
	return median(v)
}
