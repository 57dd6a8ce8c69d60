package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rta/internal/admission"
)

const (
	// capacityPhase is the closed-loop saturation phase after the
	// open-loop window, measured in capacityWindows equal windows.
	capacityPhase   = 3 * time.Second
	capacityWindows = 12
	// rssInterval is the window of each peak-RSS sample.
	rssInterval = 500 * time.Millisecond
	// drainLimit bounds how long requests still queued when the schedule
	// ends may wait to be sent; later ones are dropped and fail.
	drainLimit = 20 * time.Second
	// burstCV is the coefficient of variation of the Gamma interarrivals.
	burstCV = 4
)

// serveWorkload is a traffic mix against one rta-serve process.
type serveWorkload struct {
	policy  admission.PriorityPolicy
	durable bool // -state-dir with -fsync, recovery timed after the run
	// rate is each tenant's offered request rate (1/s, all kinds).
	rate float64
	// limit is the decision latency limit behind slo_miss_frac.
	limit time.Duration
	// setups is how many times a run sets up (and, except the last,
	// tears down) its server; setup_s is their median.
	setups  int
	tenants func(seed int64) ([]tenant, error)
}

func (w serveWorkload) args(stateDir string) []string {
	args := []string{"-policy", map[admission.PriorityPolicy]string{
		admission.KeepPriorities: "keep", admission.DeadlineMonotonic: "dm"}[w.policy]}
	if w.durable {
		args = append(args, "-state-dir", stateDir, "-fsync")
	}
	return args
}

func nconns(tenants int) int { return min(tenants, 2) }

// send issues one request and applies its reply to the tenant. A
// transport error or a non-200 reply is the request failing; a reply the
// workload forbids is recorded as a violation.
func send(c conn, base string, t tenant, r request, v *violations) error {
	status, body, err := c.do(r.Method, base+r.Path, r.Body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", r.Method, r.Path, status, bytes.TrimSpace(body))
	}
	if err := t.Observe(r, body); err != nil {
		v.add(err)
	}
	return nil
}

// violations collects failed correctness checks from several goroutines.
type violations struct {
	mu   sync.Mutex
	list []string
}

func (v *violations) add(err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.list) < 20 {
		v.list = append(v.list, err.Error())
	}
}

// eachConn runs f once per connection, each over the tenants that
// connection carries, and returns the first error.
func eachConn(ts []tenant, f func(c int, mine []tenant) error) error {
	n := nconns(len(ts))
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		var mine []tenant
		for i := c; i < len(ts); i += n {
			mine = append(mine, ts[i])
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = f(c, mine)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// preload creates every tenant and sends its set-up traffic.
func preload(base string, ts []tenant, cs []conn, v *violations) error {
	return eachConn(ts, func(c int, mine []tenant) error {
		for _, t := range mine {
			status, body, err := cs[c].do(http.MethodPut, base+"/v1/tenants/"+t.ID(), specBody(t.Procs()))
			if err != nil {
				return err
			}
			if status != http.StatusCreated {
				return fmt.Errorf("creating %s: status %d: %s", t.ID(), status, body)
			}
			for _, r := range t.Preload() {
				if err := send(cs[c], base, t, r, v); err != nil {
					return fmt.Errorf("preload: %w", err)
				}
			}
		}
		return nil
	})
}

// fetchBounds reads every tenant's /bounds body.
func fetchBounds(base string, ts []tenant, c conn) ([][]byte, error) {
	out := make([][]byte, len(ts))
	for i, t := range ts {
		status, body, err := c.do(http.MethodGet, base+"/v1/tenants/"+t.ID()+"/bounds", nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("%s bounds: status %d: %s", t.ID(), status, body)
		}
		out[i] = body
	}
	return out, nil
}

// measureCapacity runs the closed-loop phase: each connection sends its
// tenants' next decisions back to back. Capacity is the median
// completion rate over capacityWindows windows, so a stalled moment of
// the host does not set it.
func measureCapacity(ts []tenant, cs []conn, base string, v *violations, res *result) (float64, int) {
	var windows [capacityWindows]atomic.Int64
	var failed, done atomic.Int64
	start := time.Now()
	end := start.Add(capacityPhase)
	_ = eachConn(ts, func(c int, mine []tenant) error {
		for time.Now().Before(end) {
			for _, t := range mine {
				if err := send(cs[c], base, t, t.Next(true), v); err != nil {
					failed.Add(1)
					res.noteErr(err)
					continue
				}
				if w := int(time.Since(start) * capacityWindows / capacityPhase); w < capacityWindows {
					windows[w].Add(1)
				}
				res.attempt(1)
				done.Add(1)
			}
		}
		return nil
	})
	rates := make([]float64, capacityWindows)
	for i := range windows {
		rates[i] = float64(windows[i].Load()) / (capacityPhase / capacityWindows).Seconds()
	}
	res.attempt(int(failed.Load()))
	res.fail(int(failed.Load()))
	return median(rates), int(done.Load())
}

// runServe runs one serve workload end to end: timed set-ups, the
// open-loop window, the closed-loop capacity phase, the bounds check
// against cold analysis and, for the durable workload, a timed restart.
func runServe(w serveWorkload, o runOpts) (*result, error) {
	res := newResult()
	stateDir := filepath.Join(o.work, "state")
	var v violations
	var srv *server
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	var ts []tenant
	var cs []conn
	var setups []float64
	for i := 0; i < w.setups; i++ {
		if srv != nil {
			err := srv.stop()
			srv = nil
			if err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(stateDir); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if srv, err = startServer(o.serveBin, w.args(stateDir)...); err != nil {
			return nil, err
		}
		if ts, err = w.tenants(o.seed); err != nil {
			return nil, err
		}
		cs = make([]conn, nconns(len(ts)))
		for c := range cs {
			cs[c] = newConn()
		}
		if err := preload(srv.base, ts, cs, &v); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Open loop: every request is timed from its due time.
	arrivals := schedule(o.seed, len(ts), w.rate, burstCV, o.seconds)
	setupPeak, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	stopPeaks := srv.samplePeaks(rssInterval)
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	out, late := runOpenLoop(arrivals, len(cs), drainLimit, func(c int, a arrival) (opKind, error) {
		t := ts[a.Stream]
		r := t.Next(false)
		return r.Kind, send(cs[c], srv.base, t, r, &v)
	})
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	peaks, err := stopPeaks()
	if err != nil {
		return nil, fmt.Errorf("sampling peak RSS: %w", err)
	}
	var decisions, queries, service []time.Duration
	offered, missed := 0, 0
	for _, s := range out {
		res.attempt(1)
		if s.Dropped || s.Err != nil {
			res.fail(1)
			res.noteErr(s.Err)
		}
		if s.Dropped || s.Kind.decision() {
			offered++
			if s.Dropped || s.Err != nil || s.Latency > w.limit {
				missed++
			}
		}
		if s.Dropped || s.Err != nil {
			continue
		}
		if s.Kind.decision() {
			decisions = append(decisions, s.Latency)
			service = append(service, s.Service)
		} else {
			queries = append(queries, s.Latency)
		}
	}
	dec, err := summarize(decisions)
	if err != nil {
		return nil, fmt.Errorf("decision latency: %w", err)
	}
	svc, err := summarize(service)
	if err != nil {
		return nil, fmt.Errorf("decision service time: %w", err)
	}
	qry, err := summarize(queries)
	if err != nil {
		return nil, fmt.Errorf("query latency: %w", err)
	}
	lateSum, err := summarize(late)
	if err != nil {
		return nil, fmt.Errorf("generator lateness: %w", err)
	}

	capCPU0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	capacity, capDone := measureCapacity(ts, cs, srv.base, &v, res)
	capCPU1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}

	runPeak, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	runPeak = max(runPeak, setupPeak, slices.Max(peaks))
	before, err := fetchBounds(srv.base, ts, cs[0])
	if err != nil {
		return nil, err
	}
	for i, t := range ts {
		want, err := coldBounds(t.Procs(), t.Admitted(), w.policy)
		if err != nil {
			return nil, fmt.Errorf("%s cold analysis: %w", t.ID(), err)
		}
		if err := checkBounds(t.ID(), before[i], want); err != nil {
			v.add(err)
		}
	}
	for _, c := range cs {
		c.close()
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}

	recovery := 0.0
	if w.durable {
		start := time.Now()
		if srv, err = startServer(o.serveBin, w.args(stateDir)...); err != nil {
			return nil, err
		}
		recovery = time.Since(start).Seconds()
		c := newConn()
		after, err := fetchBounds(srv.base, ts, c)
		if err != nil {
			return nil, err
		}
		c.close()
		for i, t := range ts {
			if !bytes.Equal(before[i], after[i]) {
				v.add(fmt.Errorf("%s: bounds after recovery differ: %s vs %s", t.ID(), after[i], before[i]))
			}
		}
		err = srv.stop()
		srv = nil
		if err != nil {
			return nil, err
		}
		if res.Failed > 0 {
			v.add(fmt.Errorf("%d errored requests, want none", res.Failed))
		}
	}
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}

	res.violations = v.list
	res.genLateTail = lateSum.Tail
	res.set("setup_s", median(setups), "s")
	res.set("cpu_ms_per_op", (cpu1-cpu0)*1000/float64(len(decisions)), "ms")
	res.set("rss_mb", median(peaks), "MB")

	res.note("offered_rate_per_s", w.rate*float64(len(ts)), "1/s", fmt.Sprintf("%d tenants, Gamma cv %d, open loop on %d connections", len(ts), burstCV, len(cs)))
	res.note("decision_p50_ms", dec.P50, "ms", fmt.Sprintf("n=%d, from due time", dec.N))
	res.note("decision_tail_ms", dec.Tail, "ms", fmt.Sprintf("p%.2f, n=%d", dec.TailPc, dec.N))
	res.note("service_p50_ms", svc.P50, "ms", fmt.Sprintf("decisions, send to reply, n=%d", svc.N))
	res.note("service_tail_ms", svc.Tail, "ms", fmt.Sprintf("p%.2f, n=%d", svc.TailPc, svc.N))
	res.note("query_p50_ms", qry.P50, "ms", fmt.Sprintf("n=%d", qry.N))
	res.note("query_tail_ms", qry.Tail, "ms", fmt.Sprintf("p%.2f, n=%d", qry.TailPc, qry.N))
	res.note("slo_miss_frac", float64(missed)/float64(max(offered, 1)), "frac", fmt.Sprintf("limit %s, %d of %d decisions", w.limit, missed, offered))
	res.note("capacity_cpu_ms_per_op", (capCPU1-capCPU0)*1000/float64(capDone), "ms", "server CPU per decision in the closed loop")
	res.note("capacity_rps", capacity, "1/s", fmt.Sprintf("closed loop, median of %d windows of %s on %d connections", capacityWindows, capacityPhase/capacityWindows, len(cs)))
	res.note("failed_frac", float64(res.Failed)/float64(res.Attempted), "frac", fmt.Sprintf("%d of %d", res.Failed, res.Attempted))
	res.note("server_rss_mb", runPeak, "MB", "VmHWM over the run")
	if w.durable {
		res.note("recovery_s", recovery, "s", "restart to /healthz ok, replay and cold cross-check included")
	}
	res.note("gen.late_tail_ms", lateSum.Tail, "ms", fmt.Sprintf("p%.2f of dispatcher lateness, n=%d", lateSum.TailPc, lateSum.N))
	res.note("setup_runs", float64(w.setups), "count", fmt.Sprint(setups))
	return res, nil
}
