package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"rta/internal/admission"
	"rta/internal/analysis"
	"rta/internal/model"
	"rta/internal/priority"
	"rta/internal/serve"
	"rta/internal/store"
)

// coldEvery samples the cold re-analysis: one decision in coldEvery pays
// for an AnalyzeOpts of its working system next to the warm converge.
const coldEvery = 4

// mirror repeats one tenant's requests on benchmark-held copies of each
// layer, so every layer is timed through its own public calls.
type mirror struct {
	t    tenant
	ctl  *admission.Controller
	sess *analysis.Session
	sys  *model.System // committed system, policy priorities applied
	spec json.RawMessage
	dm   bool // deadline-monotonic reassignment after every change
}

// layers collects the replay's samples by layer.
type layers struct {
	handler   map[string][]time.Duration // by request class
	transport []time.Duration
	span      map[string][]time.Duration // by layer span name
	// per-class medians of the layers a handler calls, for reconciling
	classLayers    map[string]map[string][]time.Duration
	allocs, bytes  []float64
	granted, asked int
	cold, warm     []time.Duration
	appends        []time.Duration
}

func (l *layers) add(class, name string, d time.Duration) {
	l.span[name] = append(l.span[name], d)
	if l.classLayers[class] == nil {
		l.classLayers[class] = map[string][]time.Duration{}
	}
	l.classLayers[class][name] = append(l.classLayers[class][name], d)
}

// replayServe is the traced run of a serve workload: the same seeded
// requests are sent over a loopback socket to an in-process server, and
// each is then repeated on mirrors of the layers it crosses, one span per
// call. The per-layer metrics replace the end-to-end ones in res.
func replayServe(w serveWorkload, o runOpts, res *result) error {
	tr := newTracer()
	cfg := serve.Config{Policy: w.policy}
	var st, mst *store.Store
	srvDir, mirDir := filepath.Join(o.work, "replay-server"), filepath.Join(o.work, "replay-mirror")
	if w.durable {
		var err error
		if st, err = store.Open(store.Config{Dir: srvDir, Fsync: true}); err != nil {
			return err
		}
		defer st.Close()
		if mst, err = store.Open(store.Config{Dir: mirDir, Fsync: true}); err != nil {
			return err
		}
		defer func() {
			if mst != nil {
				mst.Close()
			}
		}()
		cfg.Store = st
	}
	s := serve.New(cfg)
	defer s.Close()
	handled := make(chan [2]time.Time, 1)
	h := s.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(rw, r)
		handled <- [2]time.Time{start, time.Now()}
	})}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	c := newConn()
	defer c.close()

	ts, err := w.tenants(o.seed)
	if err != nil {
		return err
	}
	mirrors := make([]*mirror, len(ts))
	for i, t := range ts {
		m := &mirror{t: t, sys: &model.System{Procs: t.Procs()}, spec: specBody(t.Procs()), dm: w.policy == admission.DeadlineMonotonic}
		if m.ctl, err = admission.NewWithOptions(t.Procs(), w.policy, analysis.Options{}); err != nil {
			return err
		}
		if m.sess, err = analysis.NewSession(&model.System{Procs: t.Procs()}, analysis.SessionConfig{}); err != nil {
			return err
		}
		if mst != nil {
			if _, err := mst.Append(t.ID(), store.Op{Kind: store.OpCreate, Spec: m.spec}); err != nil {
				return err
			}
		}
		mirrors[i] = m
		status, body, err := c.do(http.MethodPut, base+"/v1/tenants/"+t.ID(), m.spec)
		<-handled
		if err != nil || status != http.StatusCreated {
			return fmt.Errorf("replay: creating %s: status %d %s %v", t.ID(), status, body, err)
		}
	}
	l := &layers{handler: map[string][]time.Duration{}, span: map[string][]time.Duration{}, classLayers: map[string]map[string][]time.Duration{}}
	var v violations
	step := func(m *mirror, r request, req int, traced bool) error {
		var root int
		rt := tr
		if !traced {
			rt = nil
		}
		start := time.Now()
		status, body, err := c.do(r.Method, base+r.Path, r.Body)
		end := time.Now()
		hd := <-handled
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("replay %s %s: status %d: %s", r.Method, r.Path, status, body)
		}
		if err := m.t.Observe(r, body); err != nil {
			v.add(err)
		}
		if traced {
			root = rt.add("request", 0, req, start, end)
			rtID := rt.add("client.roundtrip", root, req, start, end)
			rt.add("serve.handler", rtID, req, hd[0], hd[1])
		}
		class, err := m.repeat(r, rt, root, req, l, mst, traced)
		if err != nil {
			return err
		}
		if r.Kind == opAdmit || r.Kind == opProbe {
			var got verdict
			if err := json.Unmarshal(body, &got); err != nil {
				return err
			}
			if got.Admitted != (class == "admit") {
				v.add(fmt.Errorf("%s: server admitted=%v, mirror controller %s", r.Path, got.Admitted, class))
			}
		}
		if traced {
			l.handler[class] = append(l.handler[class], hd[1].Sub(hd[0]))
			l.transport = append(l.transport, end.Sub(start)-hd[1].Sub(hd[0]))
		}
		return nil
	}
	for i, t := range ts {
		for _, r := range t.Preload() {
			if err := step(mirrors[i], r, 0, false); err != nil {
				return err
			}
		}
	}
	deadline := time.Now().Add(o.seconds)
	replayed := 0
	for _, a := range schedule(o.seed, len(ts), w.rate, burstCV, o.seconds) {
		if time.Now().After(deadline) {
			break
		}
		replayed++
		if err := step(mirrors[a.Stream], ts[a.Stream].Next(false), replayed, true); err != nil {
			return err
		}
	}
	if len(v.list) > 0 {
		res.violations = append(res.violations, v.list...)
	}

	// Store layer: re-open the mirror's log (recovery without the
	// server), and measure the server's state directory per committed op.
	openS, bytesPerOp := 0.0, 0.0
	if mst != nil {
		if err := mst.Close(); err != nil {
			return err
		}
		mst = nil
		start := time.Now()
		reopened, err := store.Open(store.Config{Dir: mirDir, Fsync: true})
		if err != nil {
			return err
		}
		openS = time.Since(start).Seconds()
		if err := reopened.Close(); err != nil {
			return err
		}
		size, err := dirBytes(srvDir)
		if err != nil {
			return err
		}
		bytesPerOp = float64(size) / float64(max(len(l.appends), 1))
	}
	return l.report(res, tr, o, replayed, openS, bytesPerOp)
}

// repeat replays one request on the mirrors and returns its class: the
// controller verdict for decisions ("admit", "reject", "remove") or
// "bounds".
func (m *mirror) repeat(r request, tr *tracer, root, req int, l *layers, mst *store.Store, traced bool) (string, error) {
	span := func(name string, f func()) time.Duration { return tr.timed(name, root, req, f) }
	if r.Kind == opBounds {
		var names []string
		var bounds []model.Ticks
		var err error
		d := span("admission.bounds", func() { names, bounds, err = m.ctl.NamedBounds() })
		if err != nil {
			return "", err
		}
		doc := boundsDoc{Jobs: make([]jobBound, len(names))}
		for i := range names {
			doc.Jobs[i] = jobBound{names[i], bounds[i]}
		}
		e := span("model.encode", func() { _, err = json.Marshal(doc) })
		if traced {
			l.add("bounds", "admission.bounds", d)
			l.add("bounds", "model.encode", e)
		}
		return "bounds", err
	}

	// Decode the body the way the handler does.
	var job model.Job
	var name string
	var err error
	dec := span("model.decode", func() {
		if r.Kind == opRemove {
			var body struct {
				Name string `json:"name"`
			}
			err = json.NewDecoder(bytes.NewReader(r.Body)).Decode(&body)
			name = body.Name
			return
		}
		if job, err = model.LoadJobLimited(bytes.NewReader(r.Body), model.DefaultLimits); err == nil {
			err = m.sys.ValidateJob(&job)
		}
	})
	if err != nil {
		return "", fmt.Errorf("replay decode: %w", err)
	}

	// The decision's working system, built outside any span.
	wk := m.sys.Clone()
	if r.Kind == opRemove {
		wk.Jobs = removeJob(wk.Jobs, name)
	} else {
		wk.Jobs = append(wk.Jobs, job)
	}
	pri := time.Duration(0)
	if m.dm {
		pri = span("priority.reassign", func() { priority.RelativeDeadlineMonotonic(wk) })
	}
	fresh := &model.System{Procs: wk.Procs, Jobs: wk.Jobs}
	topo := span("model.topology", func() { fresh.Topology() })

	// The controller decision, with its allocations.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	ok := true
	if r.Kind == opRemove {
		_, err = m.ctl.RemoveOpts(name, analysis.Options{})
	} else {
		ok, err = m.ctl.RequestOpts(job, analysis.Options{})
	}
	end := time.Now()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return "", fmt.Errorf("replay decision: %w", err)
	}
	class := "remove"
	if r.Kind != opRemove {
		class = map[bool]string{true: "admit", false: "reject"}[ok]
	}
	tr.add("admission."+class, root, req, start, end)

	// The same staged change on the mirror session: the warm converge.
	if r.Kind == opRemove {
		m.sess.RemoveNamed(name)
	} else {
		m.sess.Admit(job)
	}
	if m.dm {
		if err := m.sess.Mutate(func(s *model.System) error { priority.RelativeDeadlineMonotonic(s); return nil }); err != nil {
			return "", err
		}
	}
	conv := span("analysis.converge", func() { _, err = m.sess.Converge() })
	if err != nil {
		return "", fmt.Errorf("replay converge: %w", err)
	}
	if ok {
		m.sess.Commit()
		m.sys = wk
	} else {
		m.sess.Rollback()
	}
	if traced && req%coldEvery == 0 && len(wk.Jobs) > 0 {
		d := span("analysis.cold", func() { _, err = analysis.AnalyzeOpts(wk, analysis.Options{}) })
		if err != nil {
			return "", fmt.Errorf("replay cold: %w", err)
		}
		l.cold = append(l.cold, d)
		l.warm = append(l.warm, conv)
	}

	var enc time.Duration
	if r.Kind == opRemove {
		enc = span("model.encode", func() { _, err = json.Marshal(verdict{Removed: true}) })
	} else {
		enc = span("model.encode", func() {
			_, err = json.Marshal(struct {
				Admitted bool `json:"admitted"`
				Jobs     int  `json:"jobs"`
			}{ok, len(m.sys.Jobs)})
		})
	}
	if err != nil {
		return "", err
	}

	// The log append the durable server makes after a commit.
	var app, snap time.Duration
	if mst != nil && ok {
		var due bool
		app = span("store.append", func() {
			op := store.Op{Kind: store.OpRemove, Name: name, Pri: m.ctl.Priorities()}
			if r.Kind != opRemove {
				var raw []byte
				raw, err = json.Marshal(job)
				op = store.Op{Kind: store.OpAdmit, Job: raw, Pri: op.Pri}
			}
			if err == nil {
				due, err = mst.Append(m.t.ID(), op)
			}
		})
		if err != nil {
			return "", fmt.Errorf("replay append: %w", err)
		}
		if due {
			snap = span("store.snapshot", func() {
				jobs := make([]json.RawMessage, len(m.sys.Jobs))
				for k := range m.sys.Jobs {
					jobs[k], _ = json.Marshal(m.sys.Jobs[k])
				}
				err = mst.WriteSnapshot(m.t.ID(), m.spec, jobs)
			})
			if err != nil {
				return "", fmt.Errorf("replay snapshot: %w", err)
			}
		}
		if traced {
			l.appends = append(l.appends, app)
		}
	}
	if traced {
		l.add(class, "model.decode", dec)
		l.add(class, "admission."+class, end.Sub(start))
		l.add(class, "model.encode", enc)
		if mst != nil {
			l.add(class, "store.append", app)
			if snap > 0 {
				l.span["store.snapshot"] = append(l.span["store.snapshot"], snap)
			}
		}
		l.span["model.topology"] = append(l.span["model.topology"], topo)
		l.span["analysis.converge"] = append(l.span["analysis.converge"], conv)
		if m.dm {
			l.span["priority.reassign"] = append(l.span["priority.reassign"], pri)
		}
		l.allocs = append(l.allocs, float64(ms1.Mallocs-ms0.Mallocs))
		l.bytes = append(l.bytes, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		if r.Kind != opRemove {
			l.asked++
			if ok {
				l.granted++
			}
		}
	}
	return class, nil
}

func removeJob(jobs []model.Job, name string) []model.Job {
	out := jobs[:0]
	for _, j := range jobs {
		if j.Name != name {
			out = append(out, j)
		}
	}
	return out
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// report turns the replay's samples into the per-layer metrics,
// reconciles the handler time and writes the trace.
func (l *layers) report(res *result, tr *tracer, o runOpts, replayed int, openS, bytesPerOp float64) error {
	vals := map[string]float64{
		"gen.late_tail_ms":   res.genLateTail,
		"store.open_s":       openS,
		"store.bytes_per_op": bytesPerOp,
	}
	for class, d := range l.handler {
		vals["serve.handler_"+class+"_us"] = medianDur(d, us)
	}
	vals["serve.transport_us"] = medianDur(l.transport, us)
	for _, name := range []string{"model.decode", "model.encode", "model.topology", "priority.reassign",
		"admission.admit", "admission.reject", "admission.remove", "admission.bounds", "analysis.converge", "store.snapshot"} {
		if d := l.span[name]; len(d) > 0 {
			vals[name+"_us"] = medianDur(d, us)
		}
	}
	if l.asked > 0 {
		vals["admission.grant_frac"] = float64(l.granted) / float64(l.asked)
	}
	vals["admission.allocs_per_decision"] = median(l.allocs)
	vals["admission.bytes_per_decision"] = median(l.bytes)
	if len(l.cold) > 0 {
		cold, warm := medianDur(l.cold, us), medianDur(l.warm, us)
		vals["analysis.cold_us"] = cold
		vals["analysis.warm_ratio"] = cold / warm
	}
	if len(l.appends) > 0 {
		vals["store.append_p50_us"] = medianDur(l.appends, us)
		if s, err := summarize(l.appends); err == nil {
			vals["store.append_tail_us"] = s.Tail * 1000
		}
	}

	// Reconcile: the layers each handler calls against its time.
	var kinds []breakdown
	for class, d := range l.handler {
		b := breakdown{Count: len(d), Handler: medianDur(d, us)}
		for _, ld := range l.classLayers[class] {
			b.Layers = append(b.Layers, medianDur(ld, us))
		}
		kinds = append(kinds, b)
	}
	frac := unexplained(kinds)
	vals["serve.unexplained_frac"] = frac
	if !reconciled(frac) {
		res.violations = append(res.violations, fmt.Sprintf("layers leave %.1f%% of handler time unexplained, tolerance %.0f%%", 100*frac, 100*reconcileTolerance))
	}
	var handlerTotal time.Duration
	for _, d := range l.handler {
		for _, x := range d {
			handlerTotal += x
		}
	}
	vals["trace.overhead_frac"] = tr.cost().Seconds() / handlerTotal.Seconds()
	res.notes = append(res.notes, fmt.Sprintf("traced replay: %d requests, %d spans", replayed, len(tr.spans)))
	layerMetrics(res, vals)
	return writeTrace(res, tr, o)
}
