package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// arrival is one request of the open-loop schedule: when it is due,
// relative to the start of the run, and which stream (tenant) sends it.
type arrival struct {
	Due    time.Duration
	Stream int
}

// schedule draws the seeded open-loop arrival times: every stream is an
// independent renewal process whose interarrival times are Gamma
// distributed with the given mean rate (1/s) and coefficient of
// variation, cut at dur. The merged schedule is sorted by due time (ties
// by stream) and depends only on its arguments.
//
// Each stream's gaps are a stratified sample: with n gaps, gap i is the
// Gamma quantile of a uniform draw from the i-th of n equal strata, and
// the gaps are then shuffled. Every gap is still Gamma distributed, but
// the set of gaps matches the distribution closely in every seed, so two
// seeds differ in the order of bursts rather than in how many there are.
// That keeps seed-to-seed spread down at cv 4, where a few huge gaps
// carry most of the time.
func schedule(seed int64, streams int, rate, cv float64, dur time.Duration) []arrival {
	var out []arrival
	shape := 1 / (cv * cv)
	scale := 1 / rate / shape
	n := int(math.Ceil(rate*dur.Seconds())) + 1
	for s := 0; s < streams; s++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(s)))
		gaps := make([]float64, n)
		for i := range gaps {
			gaps[i] = scale * gammaQuantile(shape, (float64(i)+rng.Float64())/float64(n))
		}
		rng.Shuffle(n, func(a, b int) { gaps[a], gaps[b] = gaps[b], gaps[a] })
		t := 0.0
		for _, g := range gaps {
			t += g
			due := time.Duration(t * float64(time.Second))
			if due >= dur {
				break
			}
			out = append(out, arrival{Due: due, Stream: s})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Due != out[b].Due {
			return out[a].Due < out[b].Due
		}
		return out[a].Stream < out[b].Stream
	})
	return out
}

// gammaP is the regularized lower incomplete gamma function P(a, x): the
// CDF of a unit-scale Gamma(a) variable (series below a+1, Lentz's
// continued fraction for the complement above).
func gammaP(a, x float64) float64 {
	if x <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(a)
	front := math.Exp(-x + a*math.Log(x) - lg)
	if x < a+1 {
		sum, term := 1/a, 1/a
		for k := 1; k < 500 && term > sum*1e-16; k++ {
			term *= x / (a + float64(k))
			sum += term
		}
		return sum * front
	}
	const tiny = 1e-300
	b := x + 1 - a
	c, d := 1/tiny, 1/b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		if d = an*d + b; math.Abs(d) < tiny {
			d = tiny
		}
		if c = b + an/c; math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		if math.Abs(d*c-1) < 1e-16 {
			break
		}
	}
	return 1 - front*h
}

// gammaQuantile inverts gammaP(a, .) at u in (0,1), by bisection on log x.
func gammaQuantile(a, u float64) float64 {
	lo, hi := -745.0, math.Log(a+50)
	for hi < 709 && gammaP(a, math.Exp(hi)) < u {
		hi += 5
	}
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if gammaP(a, math.Exp(mid)) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Exp((lo + hi) / 2)
}

// sent is the outcome of one scheduled request.
type sent struct {
	Kind opKind
	// Latency runs from the due time to the reply, so time the request
	// spent queued behind earlier ones on its connection counts.
	Latency time.Duration
	// Service runs from the send to the reply.
	Service time.Duration
	Err     error
	// Dropped marks a request still unsent at the drain deadline; it
	// counts as failed.
	Dropped bool
}

// runOpenLoop sends the schedule on `conns` connections: one dispatcher
// hands every arrival to its stream's connection at the due time, without
// waiting for earlier replies, and one worker per connection sends its
// queue in order with do. Requests not sent by drain after the schedule's
// end are dropped. It returns the outcome of every arrival (in schedule
// order) and how late the dispatcher handed each one over.
func runOpenLoop(arrivals []arrival, conns int, drain time.Duration, do func(conn int, a arrival) (opKind, error)) ([]sent, []time.Duration) {
	out := make([]sent, len(arrivals))
	late := make([]time.Duration, len(arrivals))
	queues := make([]chan int, conns)
	for c := range queues {
		// Sized to every send the dispatcher can make, so handing over
		// never blocks on a slow connection: blocking would make the
		// schedule closed-loop.
		queues[c] = make(chan int, len(arrivals))
	}
	start := time.Now()
	var end time.Duration
	if n := len(arrivals); n > 0 {
		end = arrivals[n-1].Due
	}
	deadline := start.Add(end + drain)

	var wg sync.WaitGroup
	for c := range queues {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queues[c] {
				a := arrivals[i]
				if time.Now().After(deadline) {
					out[i] = sent{Dropped: true}
					continue
				}
				sendAt := time.Now()
				kind, err := do(c, a)
				out[i] = sent{Kind: kind, Latency: time.Since(start) - a.Due, Service: time.Since(sendAt), Err: err}
			}
		}(c)
	}
	for i, a := range arrivals {
		if wait := time.Until(start.Add(a.Due)); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = time.Since(start) - a.Due
		queues[a.Stream%conns] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return out, late
}
