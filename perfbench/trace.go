package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the id of the span that caused this one (0 for a root).
type span struct {
	ID, Parent, Req int
	Name            string
	Start, End      time.Duration // since the tracer started
}

// tracer keeps spans in memory; they are written out once, when the run
// ends. A nil tracer records nothing, so the untraced path calls the same
// code.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []span
	spent time.Duration // time spent recording spans
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	entered := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.start), End: end.Sub(t.start)})
	t.spent += time.Since(entered)
	return id
}

// cost is the time spent recording spans so far: what tracing adds to
// an untraced run of the same calls.
func (t *tracer) cost() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spent
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, parent, req int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(name, parent, req, start, end)
	return end.Sub(start)
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once, and a child running past its parent is clipped).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo,hi) covered by the union of the spans.
func covered(lo, hi time.Duration, spans []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach time.Duration
	reach = lo
	for _, x := range iv {
		a := max(x[0], reach)
		if x[1] > a {
			total += x[1] - a
			reach = x[1]
		}
	}
	return total
}

// writeChrome writes the spans as Chrome-trace JSON (complete events,
// one track per request), loadable in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	self := selfTimes(t.spans)
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: s.Req,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req, "self_ns": int(self[s.ID])}}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
