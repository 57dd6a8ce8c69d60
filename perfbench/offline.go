package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"

	"rta/internal/analysis"
	"rta/internal/benchsys"
	"rta/internal/experiments"
	"rta/internal/model"
	"rta/internal/workload"
)

// offlineSetupRuns is how many times the offline run sets up; set-up is
// cheap here, so more runs steady its median.
const offlineSetupRuns = 7

// panelSets is the number of random job sets per utilization point of
// each reduced figure panel.
const panelSets = 20

// digests pins, per seed, the SHA-256 of the reduced panels' CSV and of
// the cold bounds; regenerate with --write-digests after a change that
// is meant to alter results.
//
//go:embed digests.json
var digestsJSON []byte

type digestFile struct {
	Cold   string            `json:"cold"`
	Panels map[string]string `json:"panels"` // by seed
}

// coldSystems are the benchsys inputs of the cold pass, built fresh.
type coldSystems struct{ spnp, fcfs, spp, forkJoin *model.System }

func buildCold() coldSystems {
	return coldSystems{
		spnp:     benchsys.Large(benchsys.Jobs, benchsys.Hops, benchsys.Instances, model.SPNP),
		fcfs:     benchsys.Large(benchsys.Jobs, benchsys.Hops, benchsys.Instances, model.FCFS),
		spp:      benchsys.Large(benchsys.Jobs, benchsys.Hops, benchsys.Instances, model.SPP),
		forkJoin: benchsys.LargeForkJoin(benchsys.Jobs, benchsys.Hops, benchsys.Instances, model.SPNP),
	}
}

// coldPass runs the four cold engines once; each call goes through span
// with the layer name it reports under.
func (c coldSystems) coldPass(workers int, span func(name string, f func())) ([]*analysis.Result, error) {
	opts := analysis.Options{Workers: workers}
	calls := []struct {
		name string
		run  func() (*analysis.Result, error)
	}{
		{"analysis.approx_spnp", func() (*analysis.Result, error) { return analysis.ApproximateOpts(c.spnp, opts) }},
		{"analysis.approx_fcfs", func() (*analysis.Result, error) { return analysis.ApproximateOpts(c.fcfs, opts) }},
		{"analysis.exact_spp", func() (*analysis.Result, error) { return analysis.ExactOpts(c.spp, opts) }},
		{"analysis.forkjoin", func() (*analysis.Result, error) { return analysis.ApproximateOpts(c.forkJoin, opts) }},
	}
	out := make([]*analysis.Result, len(calls))
	for i, call := range calls {
		var err error
		span(call.name, func() { out[i], err = call.run() })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", call.name, err)
		}
	}
	return out, nil
}

// panelConfigs are one reduced Figure 3 panel (periodic, 4 stages,
// deadline 2x period, all four methods) and one reduced Figure 4 panel
// (aperiodic, deadline mean 10 and std 2).
func panelConfigs() [2]workload.Config {
	f3 := workload.Default
	f3.Arrival = workload.Periodic
	f3.Stages = 4
	f3.DeadlineFactor = 2
	f4 := workload.Default
	f4.Arrival = workload.Aperiodic
	f4.DeadlineScale = 2
	f4.DeadlineOffset = 8
	return [2]workload.Config{f3, f4}
}

var panelMethods = [2][]experiments.Method{
	{experiments.SPPExact, experiments.SunLiu, experiments.SPNPApp, experiments.FCFSApp},
	{experiments.SPPExact, experiments.SPNPApp, experiments.FCFSApp},
}

// sweepPanels sweeps both reduced panels and reports each one's time.
func sweepPanels(seed int64, workers int) ([]experiments.Panel, [2]time.Duration, error) {
	var took [2]time.Duration
	var panels []experiments.Panel
	for i, cfg := range panelConfigs() {
		start := time.Now()
		p, err := experiments.Sweep(cfg, experiments.Options{Seed: seed, Sets: panelSets,
			Utilizations: experiments.DefaultUtilizations(), Methods: panelMethods[i], Workers: workers})
		if err != nil {
			return nil, took, fmt.Errorf("panel %d: %w", i, err)
		}
		took[i] = time.Since(start)
		p.Name = fmt.Sprintf("reduced panel %d", i+1)
		panels = append(panels, p)
	}
	return panels, took, nil
}

func panelSetsPerSweep() int {
	return 2 * panelSets * len(experiments.DefaultUtilizations())
}

func panelCSV(panels []experiments.Panel) []byte {
	var buf bytes.Buffer
	experiments.RenderCSV(&buf, panels)
	return buf.Bytes()
}

// boundsJSON is the canonical byte form of cold results.
func boundsJSON(res []*analysis.Result) []byte {
	doc := make([][2][]model.Ticks, len(res))
	for i, r := range res {
		doc[i] = [2][]model.Ticks{r.WCRT, r.WCRTSum}
	}
	raw, _ := json.Marshal(doc)
	return raw
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runOffline is the offline batch: cold engines on the benchsys shop and
// reduced figure panels, in process, Workers 2.
func runOffline(o runOpts) (*result, error) {
	res := newResult()
	var setups []float64
	var sys coldSystems
	noSpan := func(_ string, f func()) { f() }
	for i := 0; i < offlineSetupRuns; i++ {
		start := time.Now()
		sys = buildCold()
		// One untimed pass grows the heap and fills the curve arenas, so
		// the measured passes start warm.
		if _, err := sys.coldPass(2, noSpan); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	tr := (*tracer)(nil)
	if o.trace {
		tr = newTracer()
	}
	spans := map[string][]time.Duration{}
	req := 0
	span := func(workers int) func(string, func()) {
		return func(name string, f func()) {
			d := tr.timed(name, 0, req, f)
			if workers == 2 {
				spans[name] = append(spans[name], d)
			} else {
				spans[name+"/1"] = append(spans[name+"/1"], d)
			}
		}
	}

	start := time.Now()
	var sweeps []float64
	var panelTook [2][]time.Duration
	var panels2 []experiments.Panel
	for time.Since(start) < o.seconds/3 || len(sweeps) == 0 {
		req++
		var took [2]time.Duration
		var err error
		t0 := time.Now()
		panels2, took, err = sweepPanels(o.seed, 2)
		if err != nil {
			return nil, err
		}
		tr.add("experiments.sweep", 0, req, t0, time.Now())
		sweeps = append(sweeps, float64(panelSetsPerSweep())/(took[0]+took[1]).Seconds())
		panelTook[0] = append(panelTook[0], took[0])
		panelTook[1] = append(panelTook[1], took[1])
		res.attempt(panelSetsPerSweep())
	}
	var passes []time.Duration
	var cold2 []*analysis.Result
	cpu0 := cpuSelf()
	var peaks []float64
	for len(passes) <= beyond || time.Since(start) < o.seconds {
		req++
		if err := resetPeakRSS(os.Getpid()); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if cold2, err = sys.coldPass(2, span(2)); err != nil {
			return nil, err
		}
		passes = append(passes, time.Since(t0))
		peak, err := vmHWM("/proc/self/status")
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
		res.attempt(4)
		if o.trace {
			// Traced runs alternate with serial passes for the speed-up.
			if _, err := sys.coldPass(1, span(1)); err != nil {
				return nil, err
			}
		}
	}
	cpuPerPass := (cpuSelf() - cpu0) * 1000 / float64(len(passes))
	pass, err := summarize(passes)
	if err != nil {
		return nil, err
	}
	rss := median(peaks)

	// Checks: one worker and two give byte-identical outputs, which match
	// the stored digests.
	var digests digestFile
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	cold1, err := buildCold().coldPass(1, noSpan)
	if err != nil {
		return nil, err
	}
	b1, b2 := boundsJSON(cold1), boundsJSON(cold2)
	if !bytes.Equal(b1, b2) {
		res.violations = append(res.violations, "cold bounds differ between Workers 1 and 2")
	}
	if got := digest(b1); got != digests.Cold {
		res.violations = append(res.violations, fmt.Sprintf("cold bounds digest %s, stored %s", got, digests.Cold))
	}
	panels1, _, err := sweepPanels(o.seed, 1)
	if err != nil {
		return nil, err
	}
	csv1, csv2 := panelCSV(panels1), panelCSV(panels2)
	if !bytes.Equal(csv1, csv2) {
		res.violations = append(res.violations, "panel CSV differs between Workers 1 and 2")
	}
	if want, ok := digests.Panels[strconv.FormatInt(o.seed, 10)]; !ok {
		res.notes = append(res.notes, fmt.Sprintf("no stored panel digest for seed %d: Workers 1 == 2 checked only", o.seed))
	} else if got := digest(csv1); got != want {
		res.violations = append(res.violations, fmt.Sprintf("panel CSV digest %s for seed %d, stored %s", got, o.seed, want))
	}

	setsPerS := median(sweeps)
	res.set("setup_s", median(setups), "s")
	res.set("cpu_ms_per_op", cpuPerPass, "ms")
	res.set("rss_mb", rss, "MB")
	res.note("cold_pass_ms", pass.P50, "ms", fmt.Sprintf("4 cold engine calls on the 50x8 shop, Workers 2, n=%d", pass.N))
	res.note("cold_pass_tail_ms", pass.Tail, "ms", fmt.Sprintf("p%.2f, n=%d", pass.TailPc, pass.N))
	res.note("figure_sets_per_s", setsPerS, "1/s", fmt.Sprintf("median of %d sweeps of 2 panels x %d sets, Workers 2", len(sweeps), panelSetsPerSweep()/2))
	res.note("setup_runs", float64(offlineSetupRuns), "count", fmt.Sprint(setups))
	if !o.trace {
		return res, nil
	}

	vals := map[string]float64{}
	serial, parallel := 0.0, 0.0
	for _, name := range []string{"analysis.approx_spnp", "analysis.approx_fcfs", "analysis.exact_spp", "analysis.forkjoin"} {
		vals[name+"_ms"] = medianDur(spans[name], ms)
		parallel += medianDur(spans[name], ms)
		serial += medianDur(spans[name+"/1"], ms)
	}
	vals["par.speedup_2w"] = serial / parallel
	vals["experiments.sweep_f3_s"] = medianDur(panelTook[0], time.Duration.Seconds)
	vals["experiments.sweep_f4_s"] = medianDur(panelTook[1], time.Duration.Seconds)
	vals["trace.overhead_frac"] = tr.cost().Seconds() / time.Since(start).Seconds()
	layerMetrics(res, vals)
	return res, writeTrace(res, tr, o)
}

// writeDigests regenerates digests.json for seeds 1..n.
func writeDigests(path string, n int) error {
	cold, err := buildCold().coldPass(1, func(_ string, f func()) { f() })
	if err != nil {
		return err
	}
	doc := digestFile{Cold: digest(boundsJSON(cold)), Panels: map[string]string{}}
	for seed := int64(1); seed <= int64(n); seed++ {
		panels, _, err := sweepPanels(seed, 2)
		if err != nil {
			return err
		}
		doc.Panels[strconv.FormatInt(seed, 10)] = digest(panelCSV(panels))
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// cpuSelf is this process's user plus system CPU time in seconds.
func cpuSelf() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
