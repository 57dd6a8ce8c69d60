// Command perfbench is the repository's benchmark: it runs one workload
// against the analysis and the admission service built from this
// checkout, checks the outputs, and prints every metric by name and unit
// followed by one JSON result line.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload churn-keep --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same
// workload and then replays its seeded requests in process, recording a
// span around every call into a layer, and reports the per-layer metrics.
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rta/internal/admission"
)

// runOpts are one run's parameters.
type runOpts struct {
	name     string
	seed     int64
	seconds  time.Duration
	trace    bool
	serveBin string // the rta-serve binary under test
	work     string // scratch directory inside the checkout
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the metrics of the JSON line, the notes
// printed above it, and any failed correctness check.
type result struct {
	mu                sync.Mutex // guards the counts and errSamples
	Attempted, Failed int
	genLateTail       float64 // ms, the open-loop generator's lateness tail
	metrics           map[string]metric
	notes             []string
	violations        []string
	errSamples        []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// note records a figure printed for people but not part of the JSON line.
func (r *result) note(name string, v float64, unit, detail string) {
	r.notes = append(r.notes, fmt.Sprintf("%-28s %14.6g %-6s %s", name, v, unit, detail))
}

func (r *result) noteErr(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil && len(r.errSamples) < 5 {
		r.errSamples = append(r.errSamples, err.Error())
	}
}

func (r *result) attempt(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted += n
}

func (r *result) fail(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed += n
}

// workloads are the benchmark's workloads by name. The serve rates sit
// near a third of each workload's measured capacity, except churn-keep
// and durable-tenants, whose bursts at that rate queue for most of the
// run (see README.md).
var workloads = map[string]func(runOpts) (*result, error){
	"churn-keep": serveRunner(serveWorkload{
		policy: admission.KeepPriorities, rate: 55, limit: 50 * time.Millisecond, setups: 5,
		tenants: newChurnTenants,
	}),
	"churn-dm": serveRunner(serveWorkload{
		policy: admission.DeadlineMonotonic, rate: 9, limit: 250 * time.Millisecond, setups: 3,
		tenants: newChurnTenants,
	}),
	"durable-tenants": serveRunner(serveWorkload{
		policy: admission.DeadlineMonotonic, durable: true, rate: 80, limit: 20 * time.Millisecond, setups: 7,
		tenants: newDurableTenants,
	}),
	"offline-batch": runOffline,
}

func serveRunner(w serveWorkload) func(runOpts) (*result, error) {
	return func(o runOpts) (*result, error) {
		res, err := runServe(w, o)
		if err != nil || !o.trace {
			return res, err
		}
		return res, replayServe(w, o, res)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	serveBin := flag.String("serve-bin", ".bench_build/bin/rta-serve", "rta-serve binary under test")
	writeDigestSeeds := flag.Int("write-digests", 0, "regenerate perfbench/digests.json for seeds 1..N and exit")
	flag.Parse()
	if *writeDigestSeeds > 0 {
		if err := writeDigests("perfbench/digests.json", *writeDigestSeeds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names())
		os.Exit(2)
	}
	work := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(work)
	res, err := run(runOpts{name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		serveBin: *serveBin, work: work})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.RemoveAll(work)
		os.Exit(1)
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	if err := checkMetricSet(res.metrics, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if !report(*name, res) {
		os.RemoveAll(work)
		os.Exit(1)
	}
}

// report prints the notes, the metrics and the JSON line, and reports
// whether every correctness check passed.
func report(name string, res *result) bool {
	fmt.Printf("# %s\n", name)
	for _, n := range res.notes {
		fmt.Println(n)
	}
	keys := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-28s %14.6g %s\n", k, res.metrics[k].Value, res.metrics[k].Unit)
	}
	for _, e := range res.errSamples {
		fmt.Fprintln(os.Stderr, "perfbench: failed request:", e)
	}
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", v)
	}
	correct := len(res.violations) == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}

func names() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
