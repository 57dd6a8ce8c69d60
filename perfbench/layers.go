package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// endToEnd lists the metrics of an untraced run's JSON line.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MB"},
}

// perLayer lists every per-layer metric of a traced run, in print order.
// A layer a workload does not reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"serve.handler_admit_us", "us"},
	{"serve.handler_reject_us", "us"},
	{"serve.handler_remove_us", "us"},
	{"serve.handler_bounds_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.unexplained_frac", "frac"},
	{"model.decode_us", "us"},
	{"model.encode_us", "us"},
	{"model.topology_us", "us"},
	{"priority.reassign_us", "us"},
	{"admission.admit_us", "us"},
	{"admission.reject_us", "us"},
	{"admission.remove_us", "us"},
	{"admission.bounds_us", "us"},
	{"admission.grant_frac", "frac"},
	{"admission.allocs_per_decision", "count"},
	{"admission.bytes_per_decision", "B"},
	{"analysis.converge_us", "us"},
	{"analysis.cold_us", "us"},
	{"analysis.warm_ratio", "ratio"},
	{"analysis.approx_spnp_ms", "ms"},
	{"analysis.approx_fcfs_ms", "ms"},
	{"analysis.exact_spp_ms", "ms"},
	{"analysis.forkjoin_ms", "ms"},
	{"par.speedup_2w", "ratio"},
	{"experiments.sweep_f3_s", "s"},
	{"experiments.sweep_f4_s", "s"},
	{"store.append_p50_us", "us"},
	{"store.append_tail_us", "us"},
	{"store.snapshot_us", "us"},
	{"store.open_s", "s"},
	{"store.bytes_per_op", "B"},
	{"gen.late_tail_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// layerMetrics swaps a result's metrics for the per-layer set, every
// metric present and 0 unless vals has it.
func layerMetrics(res *result, vals map[string]float64) {
	res.metrics = map[string]metric{}
	for _, m := range perLayer {
		res.set(m.name, vals[m.name], m.unit)
	}
}

// checkMetricSet reports a result whose metrics are not exactly the
// listed set with the listed units.
func checkMetricSet(got map[string]metric, want []struct{ name, unit string }) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics, want %d", len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.name]; !ok || g.Unit != m.unit {
			return fmt.Errorf("metric %s missing or not in %s", m.name, m.unit)
		}
	}
	return nil
}

// writeTrace writes the run's spans as Chrome-trace JSON under the
// checkout's build directory and notes where.
func writeTrace(res *result, tr *tracer, o runOpts) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.name, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	res.notes = append(res.notes, fmt.Sprintf("trace written to %s (%d spans)", path, len(tr.spans)))
	return nil
}
