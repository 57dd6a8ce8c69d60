package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric lists the benchmark emits are the ones BENCHMARK.json
// declares, with the same units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, emitted []struct{ name, unit string }) {
		got := map[string]metric{}
		for _, m := range declared {
			got[m.Name] = metric{Unit: m.Unit}
		}
		if err := checkMetricSet(got, emitted); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workload), len(workloads))
	}
	for _, w := range doc.Workload {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
}
