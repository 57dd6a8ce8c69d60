package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100 * ms},
		// Overlapping children count once: [10,50) covers 40.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},
		// A child past the parent's end is clipped to [90,100).
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		// A grandchild is charged to its own parent only.
		{ID: 5, Parent: 3, Name: "d", Start: 25 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerChromeOutput(t *testing.T) {
	tr := newTracer()
	now := time.Now()
	root := tr.add("request", 0, 7, now, now.Add(3*time.Millisecond))
	tr.add("child", root, 7, now.Add(time.Millisecond), now.Add(2*time.Millisecond))
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Tid  int            `json:"tid"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Args["parent"] != root || doc.TraceEvents[1].Tid != 7 {
		t.Fatalf("unexpected trace %s", buf.String())
	}
	var nilTracer *tracer
	if id := nilTracer.add("x", 0, 0, now, now); id != 0 {
		t.Fatal("nil tracer recorded a span")
	}
}
